"""Instruction-level records produced by simulated kernels.

PASTA's fine-grained analyses (Table II: global/shared memory accesses, barrier
instructions, device function calls, ...) consume per-thread instruction
records.  Real hardware produces these through binary instrumentation (Compute
Sanitizer patches or NVBit SASS injection); the simulator produces them
directly from the kernel's declared memory behaviour.

Only the fields that PASTA's analyses need are modelled: the instruction kind,
the issuing thread coordinates, the referenced address/size for memory
operations, and a flag for whether the access is a read or a write.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Sequence

import numpy as np


class InstructionKind(str, Enum):
    """Device-side operation categories (mirrors the fine-grained rows of Table II)."""

    GLOBAL_LOAD = "global_load"
    GLOBAL_STORE = "global_store"
    SHARED_LOAD = "shared_load"
    SHARED_STORE = "shared_store"
    BARRIER = "barrier"
    BLOCK_ENTRY = "block_entry"
    BLOCK_EXIT = "block_exit"
    DEVICE_CALL = "device_call"
    DEVICE_RETURN = "device_return"
    DEVICE_MALLOC = "device_malloc"
    DEVICE_FREE = "device_free"
    GLOBAL_TO_SHARED_COPY = "global_to_shared_copy"
    PIPELINE_COMMIT = "pipeline_commit"
    PIPELINE_WAIT = "pipeline_wait"
    REMOTE_SHARED_ACCESS = "remote_shared_access"
    CLUSTER_BARRIER = "cluster_barrier"
    OTHER = "other"

    @property
    def is_memory_access(self) -> bool:
        """True for instructions that reference global memory addresses."""
        return self in _MEMORY_KINDS

    @property
    def is_write(self) -> bool:
        """True for instructions that write memory."""
        return self in (InstructionKind.GLOBAL_STORE, InstructionKind.SHARED_STORE)


_MEMORY_KINDS = frozenset(
    {
        InstructionKind.GLOBAL_LOAD,
        InstructionKind.GLOBAL_STORE,
        InstructionKind.GLOBAL_TO_SHARED_COPY,
    }
)


@dataclass(frozen=True)
class MemoryAccessRecord:
    """One global-memory access observed during kernel execution.

    Attributes
    ----------
    address:
        Virtual address referenced by the access.
    size:
        Access width in bytes (4/8/16 for typical loads, up to 128 for vector
        and asynchronous copy instructions).
    is_write:
        True for stores.
    thread_index:
        Flattened thread index within the grid that issued the access.
    block_index:
        Flattened thread-block index.
    kernel_launch_id:
        Launch that produced the access; filled in by the trace collector.
    """

    address: int
    size: int
    is_write: bool
    thread_index: int = 0
    block_index: int = 0
    kernel_launch_id: int = 0


@dataclass(frozen=True)
class InstructionRecord:
    """A generic device-side instruction event (non-memory or memory).

    ``address``/``size`` are ``None`` for non-memory instructions such as
    barriers and block entry/exit markers.
    """

    kind: InstructionKind
    thread_index: int = 0
    block_index: int = 0
    address: Optional[int] = None
    size: Optional[int] = None
    kernel_launch_id: int = 0


def plain_values(column: Sequence) -> Sequence:
    """A column's values as Python scalars: numpy arrays via ``tolist()``.

    Used wherever a column is unrolled into per-record objects, so those
    carry plain ``int``/``bool`` fields whatever the column's container.
    """
    return column.tolist() if isinstance(column, np.ndarray) else column


@dataclass(frozen=True, eq=False)
class InstructionBatchRecord:
    """One kernel launch's sampled device records as parallel arrays.

    The columnar alternative to a list of :class:`InstructionRecord`: a
    single object per kernel launch, holding three sections in stream order —
    the instructions issued *before* the memory accesses (block-entry
    markers), the memory accesses themselves, and the instructions issued
    *after* them (block-exit markers).  Iterating the three sections in order
    yields exactly the record sequence the per-record path would produce, so
    both delivery modes are interchangeable.

    The access columns are read-only numpy arrays when produced by
    :meth:`~repro.gpusim.kernel.KernelLaunch.generate_instruction_batch`;
    tuples are accepted too.  ``eq=False``: batches compare by identity
    (a value ``__eq__`` over array fields would be ambiguous).
    """

    kernel_launch_id: int
    device_index: int = 0
    #: Instructions preceding the access stream (e.g. BLOCK_ENTRY markers).
    pre_kinds: tuple[InstructionKind, ...] = ()
    pre_thread_indices: tuple[int, ...] = ()
    pre_block_indices: tuple[int, ...] = ()
    #: Sampled memory accesses (parallel arrays).
    addresses: tuple[int, ...] = ()
    sizes: tuple[int, ...] = ()
    write_flags: tuple[bool, ...] = ()
    access_thread_indices: tuple[int, ...] = ()
    access_block_indices: tuple[int, ...] = ()
    #: Instructions following the access stream (e.g. BLOCK_EXIT markers).
    post_kinds: tuple[InstructionKind, ...] = ()
    post_thread_indices: tuple[int, ...] = ()
    post_block_indices: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.pre_kinds) + len(self.addresses) + len(self.post_kinds)

    @property
    def access_count(self) -> int:
        """Number of sampled memory accesses in the batch."""
        return len(self.addresses)

    def iter_records(self) -> "Iterator[InstructionRecord]":
        """Unrolled per-record view, in the per-record pipeline's order."""
        for kind, thread, block in zip(
            self.pre_kinds, plain_values(self.pre_thread_indices),
            plain_values(self.pre_block_indices),
        ):
            yield InstructionRecord(
                kind=kind, thread_index=thread, block_index=block,
                kernel_launch_id=self.kernel_launch_id,
            )
        for address, size, is_write, thread, block in zip(
            plain_values(self.addresses), plain_values(self.sizes),
            plain_values(self.write_flags), plain_values(self.access_thread_indices),
            plain_values(self.access_block_indices),
        ):
            yield InstructionRecord(
                kind=InstructionKind.GLOBAL_STORE if is_write else InstructionKind.GLOBAL_LOAD,
                thread_index=thread, block_index=block,
                address=address, size=size,
                kernel_launch_id=self.kernel_launch_id,
            )
        for kind, thread, block in zip(
            self.post_kinds, plain_values(self.post_thread_indices),
            plain_values(self.post_block_indices),
        ):
            yield InstructionRecord(
                kind=kind, thread_index=thread, block_index=block,
                kernel_launch_id=self.kernel_launch_id,
            )
