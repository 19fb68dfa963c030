"""Functional operators: the operator -> kernel lowering layer.

Each function mirrors a PyTorch ``aten`` operator: it allocates its output
tensors through the :class:`~repro.dlframework.context.FrameworkContext`,
launches the kernels the real backend would launch (with realistic kernel
names supplied by the :class:`~repro.dlframework.backend.BackendProfile`), and
returns the outputs.  Operator boundaries are emitted around every call so
PASTA sees the same operator/kernel nesting a real PyTorch run produces — one
operator frequently maps to several kernels, which is exactly the hidden
mapping the paper says framework-native profilers expose and vendor tools do
not.

Backward-pass operators and optimizer steps live here too, so training runs
exercise realistic gradient/optimizer-state allocation patterns.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.errors import ShapeError
from repro.dlframework.context import FrameworkContext, TensorUse, read, readwrite, write
from repro.dlframework.tensor import DType, Tensor, check_matmul_shapes


# --------------------------------------------------------------------------- #
# shape helpers
# --------------------------------------------------------------------------- #
def conv2d_output_shape(
    input_shape: Sequence[int],
    out_channels: int,
    kernel_size: int,
    stride: int = 1,
    padding: int = 0,
) -> tuple[int, int, int, int]:
    """Output shape of a 2-D convolution over NCHW input."""
    if len(input_shape) != 4:
        raise ShapeError(f"conv2d expects NCHW input, got shape {tuple(input_shape)}")
    n, _c, h, w = input_shape
    oh = (h + 2 * padding - kernel_size) // stride + 1
    ow = (w + 2 * padding - kernel_size) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ShapeError(f"conv2d output collapses to zero for input {tuple(input_shape)}")
    return (n, out_channels, oh, ow)


def pool2d_output_shape(
    input_shape: Sequence[int], kernel_size: int, stride: Optional[int] = None, padding: int = 0
) -> tuple[int, int, int, int]:
    """Output shape of a 2-D pooling operator."""
    stride = stride or kernel_size
    n, c, h, w = input_shape
    oh = (h + 2 * padding - kernel_size) // stride + 1
    ow = (w + 2 * padding - kernel_size) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ShapeError(f"pool2d output collapses to zero for input {tuple(input_shape)}")
    return (n, c, oh, ow)


# --------------------------------------------------------------------------- #
# dense / GEMM operators
# --------------------------------------------------------------------------- #
def _gemm_workspace(ctx: FrameworkContext) -> Optional[Tensor]:
    """Allocate (and cache) the BLAS workspace the backend requests per GEMM.

    cuBLAS keeps a workspace per handle; rocBLAS requests a smaller one.  The
    workspace is allocated once through the caching allocator and reused, so it
    raises the peak without adding per-GEMM allocation events.
    """
    if ctx.backend.gemm_workspace_bytes <= 0:
        return None
    cached = getattr(ctx, "_gemm_workspace_tensor", None)
    if cached is None or cached.freed:
        cached = ctx.alloc((ctx.backend.gemm_workspace_bytes,), dtype=DType.INT8,
                           name="blas_workspace")
        ctx._gemm_workspace_tensor = cached
    return cached


def linear(ctx: FrameworkContext, x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``aten::linear`` — x @ weight.T + bias."""
    out_features, in_features = weight.shape
    if x.shape[-1] != in_features:
        raise ShapeError(f"linear: input {x.shape} incompatible with weight {weight.shape}")
    batch = math.prod(x.shape[:-1])
    out_shape = (*x.shape[:-1], out_features)
    with ctx.op("aten::linear"):
        out = ctx.alloc(out_shape, dtype=x.dtype, name="linear_out")
        flops = 2.0 * batch * in_features * out_features
        reuse = ctx.backend.gemm_reuse_factor
        uses = [
            read(x, intensity=0.25 * reuse),
            read(weight, intensity=0.25 * reuse),
            write(out),
        ]
        workspace = _gemm_workspace(ctx)
        if workspace is not None:
            uses.append(TensorUse(workspace, accessed_fraction=0.1, is_read=True,
                                  is_written=True, accesses_per_byte=0.05))
        if bias is not None and ctx.backend.fuse_bias_activation:
            uses.append(read(bias))
            ctx.launch(ctx.backend.gemm_bias_kernel_name(batch, out_features, in_features),
                       uses, flops=flops, grid_elements=batch * out_features)
        else:
            ctx.launch(ctx.backend.gemm_kernel_name(batch, out_features, in_features),
                       uses, flops=flops, grid_elements=batch * out_features)
            if bias is not None:
                ctx.launch(
                    ctx.backend.elementwise_kernel_name("add_bias"),
                    [read(bias), readwrite(out)],
                    flops=float(math.prod(out_shape)),
                    grid_elements=math.prod(out_shape),
                )
    return out


def matmul(ctx: FrameworkContext, a: Tensor, b: Tensor) -> Tensor:
    """``aten::matmul`` — batched matrix multiply."""
    out_shape = check_matmul_shapes(a.shape, b.shape)
    m, k, n = a.shape[-2], a.shape[-1], b.shape[-1]
    batch = math.prod(out_shape[:-2]) if len(out_shape) > 2 else 1
    with ctx.op("aten::matmul"):
        out = ctx.alloc(out_shape, dtype=a.dtype, name="matmul_out")
        flops = 2.0 * batch * m * n * k
        reuse = ctx.backend.gemm_reuse_factor
        ctx.launch(
            ctx.backend.gemm_kernel_name(m, n, k),
            [read(a, intensity=0.25 * reuse), read(b, intensity=0.25 * reuse), write(out)],
            flops=flops,
            grid_elements=batch * m * n,
        )
    return out


def bmm(ctx: FrameworkContext, a: Tensor, b: Tensor) -> Tensor:
    """``aten::bmm`` — strict 3-D batched matrix multiply."""
    if a.ndim != 3 or b.ndim != 3:
        raise ShapeError("bmm requires 3-D tensors")
    return matmul(ctx, a, b)


# --------------------------------------------------------------------------- #
# convolution and pooling
# --------------------------------------------------------------------------- #
def conv2d(
    ctx: FrameworkContext,
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """``aten::conv2d`` — im2col + implicit-GEMM lowering."""
    out_channels, in_channels, kh, kw = weight.shape
    if x.shape[1] != in_channels:
        raise ShapeError(f"conv2d: input channels {x.shape[1]} != weight channels {in_channels}")
    out_shape = conv2d_output_shape(x.shape, out_channels, kh, stride, padding)
    n, _c, oh, ow = out_shape
    with ctx.op("aten::conv2d"):
        im2col_kernel, gemm_kernel = ctx.backend.conv_kernel_names(forward=True)
        # im2col buffer: (N, C*KH*KW, OH*OW)
        col = ctx.alloc((n, in_channels * kh * kw, oh * ow), dtype=x.dtype, name="im2col_buffer")
        ctx.launch(
            im2col_kernel,
            [read(x, intensity=0.5), write(col)],
            flops=float(col.numel),
            grid_elements=col.numel,
        )
        out = ctx.alloc(out_shape, dtype=x.dtype, name="conv_out")
        flops = 2.0 * n * out_channels * in_channels * kh * kw * oh * ow
        uses = [read(col, intensity=0.5), read(weight, intensity=0.5), write(out)]
        if bias is not None:
            uses.append(read(bias))
        ctx.launch(gemm_kernel, uses, flops=flops, grid_elements=out.numel)
        ctx.free(col)
    return out


def max_pool2d(ctx: FrameworkContext, x: Tensor, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    """``aten::max_pool2d``."""
    out_shape = pool2d_output_shape(x.shape, kernel_size, stride)
    with ctx.op("aten::max_pool2d"):
        out = ctx.alloc(out_shape, dtype=x.dtype, name="maxpool_out")
        ctx.launch(
            ctx.backend.pool_kernel_name("max"),
            [read(x), write(out)],
            flops=float(x.numel),
            grid_elements=out.numel,
        )
    return out


def adaptive_avg_pool2d(ctx: FrameworkContext, x: Tensor, output_size: int) -> Tensor:
    """``aten::adaptive_avg_pool2d``."""
    n, c = x.shape[0], x.shape[1]
    out_shape = (n, c, output_size, output_size)
    with ctx.op("aten::adaptive_avg_pool2d"):
        out = ctx.alloc(out_shape, dtype=x.dtype, name="avgpool_out")
        ctx.launch(
            ctx.backend.pool_kernel_name("avg"),
            [read(x), write(out)],
            flops=float(x.numel),
            grid_elements=out.numel,
        )
    return out


# --------------------------------------------------------------------------- #
# elementwise and normalisation operators
# --------------------------------------------------------------------------- #
def _elementwise_unary(ctx: FrameworkContext, x: Tensor, op_name: str, inplace: bool = False) -> Tensor:
    with ctx.op(f"aten::{op_name}"):
        if inplace:
            out = x
            uses = [readwrite(x)]
        else:
            out = ctx.alloc_like(x, name=f"{op_name}_out")
            uses = [read(x), write(out)]
        ctx.launch(
            ctx.backend.elementwise_kernel_name(op_name),
            uses,
            flops=float(x.numel),
            grid_elements=x.numel,
        )
    return out


def relu(ctx: FrameworkContext, x: Tensor, inplace: bool = True) -> Tensor:
    """``aten::relu``."""
    return _elementwise_unary(ctx, x, "relu", inplace=inplace)


def gelu(ctx: FrameworkContext, x: Tensor) -> Tensor:
    """``aten::gelu``.

    On backends without a fused GELU kernel the tanh approximation is lowered
    into elementwise primitives with intermediate tensors, which produces more
    allocation/reclamation events for the same model (one of the
    NVIDIA-vs-AMD differences discussed around Figure 14).
    """
    if ctx.backend.fuse_gelu:
        return _elementwise_unary(ctx, x, "gelu", inplace=False)
    with ctx.op("aten::gelu"):
        cube = ctx.alloc_like(x, name="gelu_pow3")
        ctx.launch(ctx.backend.elementwise_kernel_name("pow"),
                   [read(x), write(cube)], flops=float(x.numel), grid_elements=x.numel)
        inner = ctx.alloc_like(x, name="gelu_tanh")
        ctx.launch(ctx.backend.elementwise_kernel_name("tanh"),
                   [read(cube), write(inner)], flops=float(x.numel), grid_elements=x.numel)
        out = ctx.alloc_like(x, name="gelu_out")
        ctx.launch(ctx.backend.elementwise_kernel_name("mul_add"),
                   [read(x), read(inner), write(out)], flops=float(x.numel), grid_elements=x.numel)
        ctx.free(cube)
        ctx.free(inner)
    return out


def tanh(ctx: FrameworkContext, x: Tensor) -> Tensor:
    """``aten::tanh``."""
    return _elementwise_unary(ctx, x, "tanh", inplace=False)


def add(ctx: FrameworkContext, a: Tensor, b: Tensor, inplace: bool = False) -> Tensor:
    """``aten::add`` (residual connections etc.)."""
    with ctx.op("aten::add"):
        if inplace:
            out = a
            uses = [readwrite(a), read(b)]
        else:
            out = ctx.alloc_like(a, name="add_out")
            uses = [read(a), read(b), write(out)]
        ctx.launch(
            ctx.backend.elementwise_kernel_name("add"),
            uses,
            flops=float(a.numel),
            grid_elements=a.numel,
        )
    return out


def mul_scalar(ctx: FrameworkContext, x: Tensor, scalar: float) -> Tensor:
    """``aten::mul`` with a scalar operand (e.g. attention scaling)."""
    return _elementwise_unary(ctx, x, "mul_scalar", inplace=True)


def dropout(ctx: FrameworkContext, x: Tensor, p: float = 0.1, training: bool = True) -> Tensor:
    """``aten::dropout``; a no-op (identity, no kernel) in eval mode."""
    if not training or p <= 0.0:
        return x
    with ctx.op("aten::dropout"):
        mask = ctx.alloc(x.shape, dtype=DType.BOOL, name="dropout_mask")
        out = ctx.alloc_like(x, name="dropout_out")
        ctx.launch(
            ctx.backend.elementwise_kernel_name("fused_dropout"),
            [read(x), write(mask), write(out)],
            flops=float(x.numel),
            grid_elements=x.numel,
        )
    return out


def softmax(ctx: FrameworkContext, x: Tensor, dim: int = -1) -> Tensor:
    """``aten::softmax``."""
    with ctx.op("aten::softmax"):
        out = ctx.alloc_like(x, name="softmax_out")
        ctx.launch(
            ctx.backend.softmax_kernel_name(),
            [read(x, intensity=0.5), write(out)],
            flops=5.0 * x.numel,
            grid_elements=x.numel,
        )
    return out


def layer_norm(ctx: FrameworkContext, x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """``aten::layer_norm``."""
    with ctx.op("aten::layer_norm"):
        out = ctx.alloc_like(x, name="layernorm_out")
        ctx.launch(
            ctx.backend.layernorm_kernel_name(),
            [read(x, intensity=0.5), read(weight), read(bias), write(out)],
            flops=8.0 * x.numel,
            grid_elements=x.numel,
        )
    return out


def batch_norm2d(
    ctx: FrameworkContext,
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    training: bool = False,
) -> Tensor:
    """``aten::batch_norm`` over NCHW input."""
    with ctx.op("aten::batch_norm"):
        out = ctx.alloc_like(x, name="batchnorm_out")
        uses = [read(x, intensity=0.5), read(weight), read(bias), write(out)]
        if training:
            uses.extend([readwrite(running_mean), readwrite(running_var)])
        else:
            uses.extend([read(running_mean), read(running_var)])
        ctx.launch(
            ctx.backend.batchnorm_kernel_name(),
            uses,
            flops=8.0 * x.numel,
            grid_elements=x.numel,
        )
    return out


def embedding(ctx: FrameworkContext, indices: Tensor, weight: Tensor) -> Tensor:
    """``aten::embedding`` — gather rows of ``weight`` by ``indices``.

    Only the gathered rows of the (potentially huge) embedding table are
    referenced, so the accessed fraction of ``weight`` is the ratio of looked-up
    tokens to vocabulary size — a natural example of footprint >> working set.
    """
    vocab, hidden = weight.shape
    out_shape = (*indices.shape, hidden)
    tokens = indices.numel
    fraction = min(1.0, tokens / max(1, vocab))
    with ctx.op("aten::embedding"):
        out = ctx.alloc(out_shape, dtype=weight.dtype, name="embedding_out")
        ctx.launch(
            ctx.backend.embedding_kernel_name(),
            [read(indices), read(weight, fraction=fraction), write(out)],
            flops=float(out.numel),
            grid_elements=out.numel,
        )
    return out


def reshape(ctx: FrameworkContext, x: Tensor, shape: Sequence[int]) -> Tensor:
    """``aten::reshape`` — metadata-only view; no kernel, no new storage."""
    new_shape = tuple(int(d) for d in shape)
    if math.prod(new_shape) != x.numel:
        raise ShapeError(f"cannot reshape {x.shape} to {new_shape}")
    view = Tensor(
        shape=new_shape,
        dtype=x.dtype,
        address=x.address,
        device_index=x.device_index,
        name=x.name or "view",
        block_id=None,  # views never own storage
        segment_object_id=x.segment_object_id,
    )
    return view


def contiguous_copy(ctx: FrameworkContext, x: Tensor, name: str = "copy_out") -> Tensor:
    """``aten::contiguous`` / ``aten::copy_`` — materialise a transposed view."""
    with ctx.op("aten::copy_"):
        out = ctx.alloc_like(x, name=name)
        ctx.launch(
            ctx.backend.copy_kernel_name(),
            [read(x), write(out)],
            flops=0.0,
            grid_elements=x.numel,
        )
    return out


def cat(ctx: FrameworkContext, tensors: Sequence[Tensor], dim: int = 0) -> Tensor:
    """``aten::cat`` along ``dim`` (shapes must match on other dims)."""
    if not tensors:
        raise ShapeError("cat requires at least one tensor")
    base = list(tensors[0].shape)
    total = sum(t.shape[dim] for t in tensors)
    base[dim] = total
    with ctx.op("aten::cat"):
        out = ctx.alloc(tuple(base), dtype=tensors[0].dtype, name="cat_out")
        uses: list[TensorUse] = [read(t) for t in tensors]
        uses.append(write(out))
        ctx.launch(
            ctx.backend.copy_kernel_name(),
            uses,
            flops=0.0,
            grid_elements=out.numel,
        )
    return out


# --------------------------------------------------------------------------- #
# attention and loss
# --------------------------------------------------------------------------- #
def scaled_dot_product_attention(
    ctx: FrameworkContext, q: Tensor, k: Tensor, v: Tensor, causal: bool = False
) -> Tensor:
    """``aten::scaled_dot_product_attention`` decomposed into BLAS + softmax kernels."""
    # q, k, v: (batch*heads, seq, head_dim)
    scores = matmul(ctx, q, reshape(ctx, k, (*k.shape[:-2], k.shape[-1], k.shape[-2])))
    scores = mul_scalar(ctx, scores, 1.0 / math.sqrt(q.shape[-1]))
    probs = softmax(ctx, scores, dim=-1)
    out = matmul(ctx, probs, v)
    ctx.free(scores)
    ctx.free(probs)
    return out


def cross_entropy(ctx: FrameworkContext, logits: Tensor, targets: Tensor) -> Tensor:
    """``aten::cross_entropy_loss`` — log-softmax + NLL reduction."""
    with ctx.op("aten::cross_entropy_loss"):
        log_probs = ctx.alloc_like(logits, name="log_softmax_out")
        ctx.launch(
            ctx.backend.softmax_kernel_name(),
            [read(logits, intensity=0.5), write(log_probs)],
            flops=5.0 * logits.numel,
            grid_elements=logits.numel,
        )
        loss = ctx.alloc((1,), dtype=logits.dtype, name="loss")
        ctx.launch(
            ctx.backend.reduction_kernel_name("nll_loss"),
            [read(log_probs, fraction=0.1), read(targets), write(loss)],
            flops=float(targets.numel),
            grid_elements=targets.numel,
        )
        ctx.free(log_probs)
    return loss


# --------------------------------------------------------------------------- #
# backward-pass operators
# --------------------------------------------------------------------------- #
def linear_backward(
    ctx: FrameworkContext,
    grad_out: Tensor,
    x: Tensor,
    weight: Tensor,
    needs_input_grad: bool = True,
) -> tuple[Optional[Tensor], Tensor, Tensor]:
    """Backward of :func:`linear`: returns (grad_input, grad_weight, grad_bias)."""
    out_features, in_features = weight.shape
    batch = math.prod(x.shape[:-1])
    reuse = ctx.backend.gemm_reuse_factor
    grad_input: Optional[Tensor] = None
    with ctx.op("aten::linear_backward"):
        if needs_input_grad:
            grad_input = ctx.alloc(x.shape, dtype=x.dtype, name="grad_input")
            ctx.launch(
                ctx.backend.gemm_kernel_name(batch, in_features, out_features),
                [read(grad_out, intensity=0.25 * reuse), read(weight, intensity=0.25 * reuse),
                 write(grad_input)],
                flops=2.0 * batch * in_features * out_features,
                grid_elements=batch * in_features,
            )
        grad_weight = ctx.alloc(weight.shape, dtype=weight.dtype, name="grad_weight")
        ctx.launch(
            ctx.backend.gemm_kernel_name(out_features, in_features, batch),
            [read(grad_out, intensity=0.25 * reuse), read(x, intensity=0.25 * reuse),
             write(grad_weight)],
            flops=2.0 * batch * in_features * out_features,
            grid_elements=out_features * in_features,
        )
        grad_bias = ctx.alloc((out_features,), dtype=weight.dtype, name="grad_bias")
        ctx.launch(
            ctx.backend.reduction_kernel_name("sum"),
            [read(grad_out), write(grad_bias)],
            flops=float(grad_out.numel),
            grid_elements=grad_out.numel,
        )
    return grad_input, grad_weight, grad_bias


def conv2d_backward(
    ctx: FrameworkContext,
    grad_out: Tensor,
    x: Tensor,
    weight: Tensor,
    needs_input_grad: bool = True,
) -> tuple[Optional[Tensor], Tensor, Tensor]:
    """Backward of :func:`conv2d`: returns (grad_input, grad_weight, grad_bias)."""
    out_channels, in_channels, kh, kw = weight.shape
    n = x.shape[0]
    oh, ow = grad_out.shape[2], grad_out.shape[3]
    col2im_kernel, dgrad_kernel, wgrad_kernel = ctx.backend.conv_kernel_names(forward=False)
    flops = 2.0 * n * out_channels * in_channels * kh * kw * oh * ow
    grad_input: Optional[Tensor] = None
    with ctx.op("aten::convolution_backward"):
        if needs_input_grad:
            col = ctx.alloc((n, in_channels * kh * kw, oh * ow), dtype=x.dtype, name="col_grad_buffer")
            ctx.launch(
                dgrad_kernel,
                [read(grad_out, intensity=0.5), read(weight, intensity=0.5), write(col)],
                flops=flops,
                grid_elements=col.numel,
            )
            grad_input = ctx.alloc(x.shape, dtype=x.dtype, name="grad_input")
            ctx.launch(
                col2im_kernel,
                [read(col, intensity=0.5), write(grad_input)],
                flops=float(col.numel),
                grid_elements=grad_input.numel,
            )
            ctx.free(col)
        grad_weight = ctx.alloc(weight.shape, dtype=weight.dtype, name="grad_weight")
        ctx.launch(
            wgrad_kernel,
            [read(grad_out, intensity=0.5), read(x, intensity=0.5), write(grad_weight)],
            flops=flops,
            grid_elements=grad_weight.numel,
        )
        grad_bias = ctx.alloc((out_channels,), dtype=weight.dtype, name="grad_bias")
        ctx.launch(
            ctx.backend.reduction_kernel_name("sum"),
            [read(grad_out), write(grad_bias)],
            flops=float(grad_out.numel),
            grid_elements=grad_out.numel,
        )
    return grad_input, grad_weight, grad_bias


def elementwise_backward(ctx: FrameworkContext, grad_out: Tensor, op_name: str) -> Tensor:
    """Backward of a unary elementwise operator."""
    with ctx.op(f"aten::{op_name}_backward"):
        grad_in = ctx.alloc_like(grad_out, name=f"grad_{op_name}")
        ctx.launch(
            ctx.backend.elementwise_kernel_name(f"{op_name}_backward"),
            [read(grad_out), write(grad_in)],
            flops=float(grad_out.numel),
            grid_elements=grad_out.numel,
        )
    return grad_in


def norm_backward(ctx: FrameworkContext, grad_out: Tensor, x: Tensor, kind: str = "layer") -> Tensor:
    """Backward of layer/batch norm; returns grad_input (param grads folded in)."""
    kernel = (
        ctx.backend.layernorm_kernel_name(backward=True)
        if kind == "layer"
        else ctx.backend.batchnorm_kernel_name(backward=True)
    )
    with ctx.op(f"aten::native_{kind}_norm_backward"):
        grad_in = ctx.alloc_like(x, name=f"grad_{kind}norm")
        ctx.launch(
            kernel,
            [read(grad_out, intensity=0.5), read(x, intensity=0.5), write(grad_in)],
            flops=8.0 * x.numel,
            grid_elements=x.numel,
        )
    return grad_in


def pool_backward(ctx: FrameworkContext, grad_out: Tensor, x: Tensor, kind: str = "max") -> Tensor:
    """Backward of a pooling operator."""
    with ctx.op(f"aten::{kind}_pool2d_backward"):
        grad_in = ctx.alloc_like(x, name=f"grad_{kind}pool")
        ctx.launch(
            ctx.backend.pool_kernel_name(kind, backward=True),
            [read(grad_out), write(grad_in)],
            flops=float(x.numel),
            grid_elements=x.numel,
        )
    return grad_in


def embedding_backward(ctx: FrameworkContext, grad_out: Tensor, indices: Tensor, weight: Tensor) -> Tensor:
    """Backward of :func:`embedding`: scatter-add into a grad table."""
    vocab, _hidden = weight.shape
    tokens = indices.numel
    fraction = min(1.0, tokens / max(1, vocab))
    with ctx.op("aten::embedding_dense_backward"):
        grad_weight = ctx.alloc(weight.shape, dtype=weight.dtype, name="grad_embedding")
        ctx.launch(
            ctx.backend.embedding_kernel_name(backward=True),
            [read(grad_out), read(indices), write(grad_weight, fraction=fraction)],
            flops=float(grad_out.numel),
            grid_elements=grad_out.numel,
        )
    return grad_weight


def softmax_backward(ctx: FrameworkContext, grad_out: Tensor, probs: Tensor) -> Tensor:
    """Backward of :func:`softmax`."""
    with ctx.op("aten::_softmax_backward_data"):
        grad_in = ctx.alloc_like(grad_out, name="grad_softmax")
        ctx.launch(
            ctx.backend.softmax_kernel_name(backward=True),
            [read(grad_out, intensity=0.5), read(probs, intensity=0.5), write(grad_in)],
            flops=5.0 * grad_out.numel,
            grid_elements=grad_out.numel,
        )
    return grad_in


# --------------------------------------------------------------------------- #
# optimizer steps
# --------------------------------------------------------------------------- #
def sgd_step(ctx: FrameworkContext, params: Sequence[Tensor], grads: Sequence[Tensor]) -> None:
    """Fused SGD update over all parameters (one multi-tensor-apply kernel per chunk)."""
    _optimizer_step(ctx, "aten::_fused_sgd_", params, grads, extra_state=())


def adam_step(
    ctx: FrameworkContext,
    params: Sequence[Tensor],
    grads: Sequence[Tensor],
    exp_avg: Sequence[Tensor],
    exp_avg_sq: Sequence[Tensor],
) -> None:
    """Fused Adam update: reads/writes parameters and both moment buffers."""
    _optimizer_step(ctx, "aten::_fused_adam_", params, grads, extra_state=(exp_avg, exp_avg_sq))


def _optimizer_step(
    ctx: FrameworkContext,
    op_name: str,
    params: Sequence[Tensor],
    grads: Sequence[Tensor],
    extra_state: Sequence[Sequence[Tensor]],
) -> None:
    if len(params) != len(grads):
        raise ShapeError("params and grads must have the same length")
    chunk = 32  # multi_tensor_apply processes parameters in fixed-size chunks
    with ctx.op(op_name):
        for start in range(0, len(params), chunk):
            uses: list[TensorUse] = []
            numel = 0
            for i in range(start, min(start + chunk, len(params))):
                uses.append(readwrite(params[i]))
                uses.append(read(grads[i]))
                for state in extra_state:
                    uses.append(readwrite(state[i]))
                numel += params[i].numel
            ctx.launch(
                ctx.backend.optimizer_kernel_name(),
                uses,
                flops=4.0 * numel,
                grid_elements=numel,
            )


# --------------------------------------------------------------------------- #
# collectives (multi-GPU)
# --------------------------------------------------------------------------- #
def all_reduce(ctx: FrameworkContext, tensor: Tensor, world_size: int = 2) -> None:
    """Ring all-reduce over ``world_size`` ranks (NCCL/RCCL kernel on this rank)."""
    with ctx.op("c10d::allreduce_"):
        ctx.launch(
            ctx.backend.communication_kernel_name("AllReduce_Sum_f32"),
            [readwrite(tensor, intensity=0.5 * max(1, world_size - 1))],
            flops=float(tensor.numel) * (world_size - 1),
            grid_elements=tensor.numel,
        )


def send_recv(ctx: FrameworkContext, tensor: Tensor, direction: str = "send") -> None:
    """Point-to-point pipeline communication (send or recv of activations)."""
    collective = "SendRecv_f32"
    with ctx.op(f"c10d::{direction}"):
        use = read(tensor) if direction == "send" else write(tensor)
        ctx.launch(
            ctx.backend.communication_kernel_name(collective),
            [use],
            flops=0.0,
            grid_elements=tensor.numel,
        )
