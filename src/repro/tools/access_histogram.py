"""Sampled device-record histogram tool (batch-native fine-grained analysis).

The simplest member of the tool collection that consumes *raw* fine-grained
records rather than the GPU-preprocessed per-kernel profiles: it histograms
the sampled memory accesses (read/write mix, access widths, distinct 2 MB
blocks touched, records per kernel launch) and tallies the non-memory
instruction kinds the backend observed.

It is also the reference implementation of a **batch-aware** tool: the
``on_memory_access_batch`` / ``on_instruction_batch`` overrides consume the
columnar arrays directly, so profiling a workload never materialises one
event object per sampled access.  Live and replayed batches carry
read-only numpy columns, reduced here with ``np.count_nonzero`` /
``np.unique``; third-party producers may still send tuples, which the same
numpy calls accept.  Counts become
plain Python ints as they are accumulated.  The per-record hooks implement
the exact same accumulation, which the pipeline-equivalence tests rely on:
unrolling a batch through them must produce a byte-identical report.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np

from repro.core.events import (
    EventCategory,
    InstructionBatch,
    InstructionEvent,
    MemoryAccessBatch,
    MemoryAccessEvent,
)
from repro.core.serialization import json_sanitize
from repro.core.tool import PastaTool
from repro.gpusim.uvm import UVM_PAGE_BYTES


class AccessHistogramTool(PastaTool):
    """Histograms sampled device-side records (accesses and instructions)."""

    tool_name = "access_histogram"
    requires_fine_grained = True
    subscribed_categories = frozenset(
        {EventCategory.MEMORY_ACCESS, EventCategory.INSTRUCTION}
    )

    def __init__(self, block_bytes: int = UVM_PAGE_BYTES) -> None:
        super().__init__()
        self.block_bytes = block_bytes
        self.reads = 0
        self.writes = 0
        #: access width in bytes -> sampled count.
        self.accesses_by_size: dict[int, int] = defaultdict(int)
        #: kernel launch id -> sampled records (accesses + instructions).
        self.records_by_launch: dict[int, int] = defaultdict(int)
        #: instruction kind value -> sampled count (non-memory records).
        self.instructions_by_kind: dict[str, int] = defaultdict(int)
        #: 2 MB-aligned blocks with at least one sampled access.
        self._blocks: set[int] = set()

    # ------------------------------------------------------------------ #
    # per-record hooks (used when batches are unrolled)
    # ------------------------------------------------------------------ #
    def on_memory_access(self, event: MemoryAccessEvent) -> None:
        if event.is_write:
            self.writes += 1
        else:
            self.reads += 1
        self.accesses_by_size[event.size] += 1
        self.records_by_launch[event.kernel_launch_id] += 1
        self._blocks.add(event.address // self.block_bytes)

    def on_instruction(self, event: InstructionEvent) -> None:
        self.instructions_by_kind[event.kind.value] += 1
        self.records_by_launch[event.kernel_launch_id] += 1

    # ------------------------------------------------------------------ #
    # batch-native hooks (columnar accumulation, no per-record events)
    # ------------------------------------------------------------------ #
    def on_memory_access_batch(self, event: MemoryAccessBatch) -> None:
        count = len(event.addresses)
        writes = int(np.count_nonzero(event.write_flags))
        self.writes += writes
        self.reads += count - writes
        sizes = self.accesses_by_size
        values, counts = np.unique(np.asarray(event.sizes, dtype=np.int64), return_counts=True)
        for size, n in zip(values.tolist(), counts.tolist()):
            sizes[size] += n
        self.records_by_launch[event.kernel_launch_id] += count
        if count:
            # Sort-and-mask distinct blocks: plain np.unique takes a hash
            # path on integer input that is several times slower here.
            blocks = np.sort(np.asarray(event.addresses, dtype=np.int64) // self.block_bytes)
            first = np.concatenate(([True], blocks[1:] != blocks[:-1]))
            self._blocks.update(blocks[first].tolist())

    def on_instruction_batch(self, event: InstructionBatch) -> None:
        by_kind = self.instructions_by_kind
        for kind, n in Counter(event.kinds).items():
            by_kind[kind.value] += n
        self.records_by_launch[event.kernel_launch_id] += len(event.kinds)

    # ------------------------------------------------------------------ #
    # derived results
    # ------------------------------------------------------------------ #
    @property
    def sampled_accesses(self) -> int:
        """Total sampled memory accesses."""
        return self.reads + self.writes

    def distinct_blocks(self) -> int:
        """Number of 2 MB blocks with at least one sampled access."""
        return len(self._blocks)

    def report(self) -> dict[str, object]:
        total = self.sampled_accesses
        return json_sanitize({
            "tool": self.tool_name,
            "sampled_accesses": total,
            "reads": self.reads,
            "writes": self.writes,
            "write_fraction": (self.writes / total) if total else 0.0,
            "distinct_blocks": self.distinct_blocks(),
            "instrumented_launches": len(self.records_by_launch),
            "accesses_by_size": dict(sorted(self.accesses_by_size.items())),
            "instructions_by_kind": dict(sorted(self.instructions_by_kind.items())),
        })
