"""Array-native fine-grained pipeline: numpy columns from producer to tools.

Covers the contracts that let sampled device records travel as read-only
numpy arrays instead of tuples of Python ints:

* produced columns are read-only, and unrolled records carry plain
  ``int``/``bool`` fields;
* batch hooks give the same reports for tuple columns (replay, third-party
  producers) as for array columns (live runs);
* the trace codec encodes both containers to the same record;
* the one-pass sparse hotness classification equals the dense-matrix one;
* a finished run is freed by reference counting (no session cycles).
"""

from __future__ import annotations

import gc
import weakref
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import ProfileSpec, execute
from repro.core.events import InstructionBatch, MemoryAccessBatch
from repro.core.handler import PastaEventHandler
from repro.core.processor import PastaEventProcessor
from repro.core.serialization import stable_json_dumps
from repro.core.session import PastaSession
from repro.dlframework.callbacks import FrameworkCallbackRegistry
from repro.gpusim.instruction import InstructionKind
from repro.gpusim.kernel import Dim3, GridConfig, KernelArgument, KernelLaunch
from repro.gpusim.runtime import AcceleratorRuntime
from repro.replay.format import encode_event
from repro.tools import AccessHistogramTool, TimeSeriesHotnessTool


def _launch() -> KernelLaunch:
    return KernelLaunch(
        kernel_name="array_native_kernel",
        grid_config=GridConfig(grid=Dim3(8), block=Dim3(128)),
        arguments=(
            KernelArgument(address=0x1000_0000, size=6 << 20, is_written=True),
            KernelArgument(address=0x4000_0000, size=1 << 20, accesses_per_byte=2.0),
        ),
    )


def _array_batches() -> list:
    """The handler's batch events for one launch, as a live run emits them."""
    events: list = []
    handler = PastaEventHandler(sink=events.append)
    handler._emit_instruction_batch(_launch().generate_instruction_batch(), 0, "test")
    assert any(isinstance(e, MemoryAccessBatch) for e in events)
    return events


def _as_tuples(event):
    """The same batch with every column as a tuple of Python scalars."""
    if isinstance(event, MemoryAccessBatch):
        return MemoryAccessBatch(
            kernel_launch_id=event.kernel_launch_id,
            addresses=tuple(np.asarray(event.addresses).tolist()),
            sizes=tuple(np.asarray(event.sizes).tolist()),
            write_flags=tuple(np.asarray(event.write_flags).tolist()),
            thread_indices=tuple(np.asarray(event.thread_indices).tolist()),
            block_indices=tuple(np.asarray(event.block_indices).tolist()),
            device_index=event.device_index,
            source=event.source,
        )
    return InstructionBatch(
        kernel_launch_id=event.kernel_launch_id,
        kinds=tuple(event.kinds),
        thread_indices=tuple(np.asarray(event.thread_indices).tolist()),
        block_indices=tuple(np.asarray(event.block_indices).tolist()),
        device_index=event.device_index,
        source=event.source,
    )


class TestProducedColumns:
    def test_access_columns_are_read_only_arrays(self):
        batch = _launch().generate_instruction_batch()
        columns = (batch.addresses, batch.sizes, batch.write_flags,
                   batch.access_thread_indices, batch.access_block_indices)
        for column in columns:
            assert isinstance(column, np.ndarray)
            with pytest.raises(ValueError):
                column[0] = 1

    def test_masked_columns_are_read_only(self):
        batch = _launch().generate_instruction_batch(
            allowed_kinds=frozenset({InstructionKind.GLOBAL_STORE})
        )
        assert len(batch.addresses) and batch.write_flags.all()
        with pytest.raises(ValueError):
            batch.addresses[0] = 0

    def test_iter_records_yields_plain_scalars(self):
        records = list(_launch().generate_instruction_batch().iter_records())
        accesses = [r for r in records if r.address is not None]
        assert accesses and len(accesses) < len(records)
        for record in records:
            assert type(record.thread_index) is int
            assert type(record.block_index) is int
        for record in accesses:
            assert type(record.address) is int
            assert type(record.size) is int

    def test_unroll_yields_plain_scalars(self):
        for batch in _array_batches():
            for event in batch.unroll():
                assert type(event.thread_index) is int
                assert type(event.block_index) is int
                if isinstance(batch, MemoryAccessBatch):
                    assert type(event.address) is int
                    assert type(event.size) is int
                    assert type(event.is_write) is bool

    def test_zero_size_normalisation_keeps_columns_read_only(self):
        from repro.gpusim.instruction import InstructionBatchRecord

        events: list = []
        handler = PastaEventHandler(sink=events.append)
        record = InstructionBatchRecord(
            kernel_launch_id=1, addresses=np.array([0x100, 0x200]),
            sizes=np.array([0, 8]), write_flags=np.array([False, True]),
            access_thread_indices=np.array([0, 1]), access_block_indices=np.array([0, 0]),
        )
        handler._emit_instruction_batch(record, 0, "test")
        (batch,) = events
        assert [e.size for e in batch.unroll()] == [4, 8]
        assert not batch.sizes.flags.writeable


class TestTupleColumnParity:
    @pytest.mark.parametrize("make_tool", [
        AccessHistogramTool,
        lambda: TimeSeriesHotnessTool(use_sampled_accesses=True),
    ], ids=["access_histogram", "hotness_sampled"])
    def test_tuple_and_array_batches_give_the_same_report(self, make_tool):
        arrays = _array_batches()
        tuples = [_as_tuples(event) for event in arrays]
        reports = []
        for events in (arrays, tuples):
            tool = make_tool()
            for event in events:
                tool.handle_event(event)
            reports.append(stable_json_dumps(tool.report()))
        assert reports[0] == reports[1]
        assert reports[0] != stable_json_dumps(make_tool().report())

    def test_encode_event_is_container_independent(self):
        for event in _array_batches():
            assert encode_event(event) == encode_event(_as_tuples(event))


# --------------------------------------------------------------------------- #
# sparse hotness == dense matrix
# --------------------------------------------------------------------------- #


def _dense_classify(windows, hot_ratio=0.6, bursty_ratio=0.25):
    """The dense block x window matrix classification the sparse pass replaced."""
    blocks = sorted({block for counts in windows.values() for block in counts})
    total_windows = max(windows) + 1 if windows else 0
    matrix = np.zeros((len(blocks), total_windows), dtype=np.int64)
    index = {block: i for i, block in enumerate(blocks)}
    for window_id, counts in windows.items():
        for block, count in counts.items():
            matrix[index[block], window_id] = count
    out = []
    for row, block in enumerate(blocks):
        counts = matrix[row]
        active = int(np.count_nonzero(counts))
        total = int(counts.sum())
        ratio = active / total_windows if total_windows else 0.0
        if ratio >= hot_ratio:
            kind = "long_lived_hot"
        elif ratio <= bursty_ratio and total > 0:
            kind = "bursty"
        else:
            kind = "cold" if total == 0 else "intermittent"
        out.append((block, total, active, total_windows, kind))
    return out


def _dense_report(windows):
    classes = _dense_classify(windows)
    by_kind = defaultdict(int)
    for c in classes:
        by_kind[c[4]] += 1
    return {
        "tool": "hotness",
        "blocks": len(classes),
        "windows": max(windows) + 1 if windows else 0,
        "block_kinds": dict(by_kind),
        "prefetch_candidates": sum(1 for c in classes if c[4] == "long_lived_hot"),
        "eviction_candidates": sum(1 for c in classes if c[4] == "bursty"),
    }


_window_dicts = st.dictionaries(
    st.integers(min_value=0, max_value=40),
    st.dictionaries(
        st.integers(min_value=0, max_value=1 << 40),
        st.integers(min_value=0, max_value=1 << 30),
        max_size=12,
    ),
    max_size=12,
)


def _tool_with(windows) -> TimeSeriesHotnessTool:
    tool = TimeSeriesHotnessTool()
    for window, counts in windows.items():
        tool._windows[window].update(counts)
    return tool


class TestSparseHotness:
    @settings(max_examples=200, deadline=None)
    @given(_window_dicts)
    def test_one_pass_matches_dense_matrix(self, windows):
        tool = _tool_with(windows)
        classes = [
            (c.block_id, c.total_accesses, c.active_windows, c.total_windows, c.kind)
            for c in tool.classify_blocks()
        ]
        assert classes == _dense_classify(windows)
        assert stable_json_dumps(tool.report()) == stable_json_dumps(_dense_report(windows))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.lists(
        st.integers(min_value=0, max_value=64), min_size=1, max_size=10))
    def test_blocks_active_in_every_window(self, window_count, blocks):
        windows = {w: {block: w + 1 for block in blocks} for w in range(window_count)}
        tool = _tool_with(windows)
        assert all(c.kind == "long_lived_hot" for c in tool.classify_blocks())
        assert tool.prefetch_candidates() == sorted(set(blocks))
        assert stable_json_dumps(tool.report()) == stable_json_dumps(_dense_report(windows))

    def test_empty_and_block_free_windows(self):
        assert _tool_with({}).report() == _dense_report({})
        windows = {0: {}, 3: {}}
        assert _tool_with(windows).report() == _dense_report(windows)


# --------------------------------------------------------------------------- #
# run lifetime: freed by reference counting
# --------------------------------------------------------------------------- #


class TestRunLifetime:
    @pytest.mark.parametrize("spec", [
        ProfileSpec(model="alexnet", batch_size=2, fine_grained=True,
                    tools=("access_histogram", "kernel_frequency")),
        ProfileSpec(model="alexnet", batch_size=2,
                    tools=("hotness", "memory_timeline", "inefficiency_locator")),
    ], ids=["fine", "coarse"])
    def test_dropped_run_is_freed_without_gc(self, spec):
        gc.collect()
        gc.disable()
        try:
            result = execute(spec)
            assert result.reports()
            session = result.session
            refs = [weakref.ref(session), weakref.ref(session.processor),
                    weakref.ref(session.runtime)]
            assert isinstance(refs[0](), PastaSession)
            assert isinstance(refs[1](), PastaEventProcessor)
            assert isinstance(refs[2](), AcceleratorRuntime)
            del result, session
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()

    def test_detach_framework_removes_both_callbacks(self):
        events: list = []
        handler = PastaEventHandler(sink=events.append)
        registry = FrameworkCallbackRegistry()
        handler.attach_framework(registry)
        registry.emit_operator(op_id=1, name="op", phase="start", device_index=0)
        assert len(events) == 1
        handler.detach_framework(registry)
        handler.detach_framework(registry)  # idempotent
        registry.emit_operator(op_id=1, name="op", phase="end", device_index=0)
        assert len(events) == 1
        assert not registry._operator_callbacks and not registry._memory_callbacks
