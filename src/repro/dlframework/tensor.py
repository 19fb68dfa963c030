"""Tensors for the simulated deep-learning framework.

Tensors are metadata-only: a shape, a dtype, and a placement inside a pool
block handed out by the caching allocator.  No element data is ever stored —
PASTA's analyses care about *where tensors live, how large they are, and when
they are allocated, accessed and reclaimed*, not about their values.

The address of a tensor is its block's device address; because the caching
allocator sub-divides large driver-level memory objects (pool segments) into
blocks, a tensor address lies *inside* a memory object, which is precisely the
object-vs-tensor granularity mismatch the paper's UVM prefetching study is
about (Section V-C1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from enum import Enum
from typing import Optional, Sequence

from repro.errors import ShapeError


class DType(str, Enum):
    """Element types supported by the substrate."""

    FLOAT32 = "float32"
    FLOAT16 = "float16"
    BFLOAT16 = "bfloat16"
    INT64 = "int64"
    INT32 = "int32"
    INT8 = "int8"
    BOOL = "bool"

    @property
    def itemsize(self) -> int:
        """Bytes per element."""
        return _ITEMSIZE[self]


_ITEMSIZE = {
    DType.FLOAT32: 4,
    DType.FLOAT16: 2,
    DType.BFLOAT16: 2,
    DType.INT64: 8,
    DType.INT32: 4,
    DType.INT8: 1,
    DType.BOOL: 1,
}

_tensor_ids = itertools.count(1)


@dataclass
class Tensor:
    """A metadata-only tensor placed in device memory.

    Attributes
    ----------
    shape:
        Tensor dimensions.
    dtype:
        Element type.
    address:
        Device virtual address of the first element (assigned by the caching
        allocator; ``0`` for tensors that have not been materialised).
    device_index:
        Owning device.
    requires_grad:
        Whether the autograd engine should produce a gradient for it.
    name:
        Optional human-readable name (e.g. ``"encoder.layer.0.attention.query.weight"``).
    is_parameter:
        True for model parameters (long-lived), False for activations and
        other transient tensors.
    block_id / segment_object_id:
        Identifiers linking the tensor back to its allocator block and the
        driver-level memory object (pool segment) containing it.
    """

    shape: tuple[int, ...]
    dtype: DType = DType.FLOAT32
    address: int = 0
    device_index: int = 0
    requires_grad: bool = False
    name: str = ""
    is_parameter: bool = False
    tensor_id: int = field(default_factory=lambda: next(_tensor_ids))
    block_id: Optional[int] = None
    segment_object_id: Optional[int] = None
    grad: Optional["Tensor"] = None
    #: Set by the allocator when the tensor's storage has been released.
    freed: bool = False

    def __post_init__(self) -> None:
        shape = self.shape
        if any(d < 0 for d in shape):
            raise ShapeError(f"tensor shape must be non-negative, got {shape}")
        # Fast path: shapes are almost always tuples of plain ints already.
        if type(shape) is not tuple or any(type(d) is not int for d in shape):
            self.shape = tuple(int(d) for d in shape)

    # ------------------------------------------------------------------ #
    # size helpers
    # ------------------------------------------------------------------ #
    # Cached: shape and dtype are fixed after __post_init__, and both sizes
    # are re-read on every allocator report and kernel-argument lowering.
    @cached_property
    def numel(self) -> int:
        """Number of elements."""
        return math.prod(self.shape) if self.shape else 1

    @cached_property
    def nbytes(self) -> int:
        """Storage size in bytes."""
        return self.numel * self.dtype.itemsize

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return len(self.shape)

    def size(self, dim: Optional[int] = None) -> tuple[int, ...] | int:
        """Shape, or the extent of one dimension (PyTorch-style)."""
        if dim is None:
            return self.shape
        return self.shape[dim]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return f"Tensor(id={self.tensor_id}{label}, shape={self.shape}, dtype={self.dtype.value})"


def check_matmul_shapes(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Validate and compute the result shape of ``a @ b`` (batched 2-D semantics)."""
    if len(a) < 2 or len(b) < 2:
        raise ShapeError(f"matmul requires >=2-D operands, got {tuple(a)} and {tuple(b)}")
    if a[-1] != b[-2]:
        raise ShapeError(f"matmul inner dimensions mismatch: {tuple(a)} @ {tuple(b)}")
    batch_a, batch_b = tuple(a[:-2]), tuple(b[:-2])
    if batch_a and batch_b and batch_a != batch_b:
        raise ShapeError(f"matmul batch dimensions mismatch: {tuple(a)} @ {tuple(b)}")
    batch = batch_a or batch_b
    return (*batch, a[-2], b[-1])
