"""Trace codec decoding, compression level, and damaged-trace handling.

* Integer and boolean batch columns decode to read-only numpy arrays, the
  same shape the live pipeline carries; enum and string columns decode to
  tuples of members and strings.
* Decoding then re-encoding returns the original record for every batch
  shape.
* The compression level changes neither the decompressed event lines nor
  the footer digest, and traces compressed at another level still read.
* A damaged chunk raises :class:`TraceFormatError` on the indexed and the
  index-less read paths, and a writer unwound by an exception (or dropped
  without ``close()``) publishes an incomplete trace, never a complete one.
"""

from __future__ import annotations

import gzip
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.core.events import (
    InstructionBatch,
    MemcpyEvent,
    MemoryAccessBatch,
    OperatorStartEvent,
)
from repro.errors import TraceError, TraceFormatError
from repro.gpusim.device import A100
from repro.gpusim.instruction import InstructionKind
from repro.replay import TraceReader, TraceWriter
from repro.replay import writer as writer_module
from repro.replay.format import TraceHeader, decode_event, dumps_record, encode_event
from repro.replay.writer import index_path_for


def make_header() -> TraceHeader:
    return TraceHeader.for_recording(
        device_spec=A100, analysis_model="gpu_resident",
        backend="compute_sanitizer", instrumentation="sanitizer",
    )


def access_batch(n: int, launch_id: int = 1) -> MemoryAccessBatch:
    return MemoryAccessBatch(
        kernel_launch_id=launch_id,
        addresses=tuple(0x7F0000000000 + 64 * i for i in range(n)),
        sizes=tuple(4 << (i % 3) for i in range(n)),
        write_flags=tuple(i % 2 == 0 for i in range(n)),
        thread_indices=tuple(range(n)),
        block_indices=tuple(i // 32 for i in range(n)),
    )


def instruction_batch(n: int, launch_id: int = 1) -> InstructionBatch:
    kinds = list(InstructionKind)
    return InstructionBatch(
        kernel_launch_id=launch_id,
        kinds=tuple(kinds[i % len(kinds)] for i in range(n)),
        thread_indices=tuple(range(n)),
        block_indices=tuple(i // 32 for i in range(n)),
    )


def sample_stream(batches: int = 12) -> list:
    events: list = []
    for i in range(batches):
        events.append(OperatorStartEvent(op_id=i, name="linear", python_stack=("a.py:1", "b.py:2")))
        events.append(access_batch(i * 7, launch_id=i))
        events.append(instruction_batch(i * 3, launch_id=i))
        events.append(MemcpyEvent(size=i + 1))
    return events


def write_trace(path, events, chunk_events: int = 8):
    with TraceWriter(path, make_header(), chunk_events=chunk_events) as writer:
        for event in events:
            writer.write(event)
    return writer.footer()


def member_spans(path) -> list[tuple[int, int]]:
    """``(offset, length)`` of every gzip member, header to footer."""
    index = json.loads(index_path_for(path).read_text(encoding="utf-8"))
    spans = [(index["header"]["offset"], index["header"]["length"])]
    spans += [(c["offset"], c["length"]) for c in index["chunks"]]
    spans.append((index["footer"]["offset"], index["footer"]["length"]))
    return spans


def event_lines(path) -> bytes:
    """The decompressed event lines of a trace (header and footer dropped)."""
    lines = gzip.decompress(path.read_bytes()).splitlines(keepends=True)
    return b"".join(lines[1:-1])


def recompress(path, out, level: int) -> None:
    """Rebuild a trace with every member at ``level`` and no sidecar index."""
    data = path.read_bytes()
    out.write_bytes(b"".join(
        gzip.compress(gzip.decompress(data[offset:offset + length]),
                      compresslevel=level, mtime=0)
        for offset, length in member_spans(path)
    ))


INDEX_COLUMNS = {
    MemoryAccessBatch: {"addresses": np.int64, "sizes": np.int64, "write_flags": np.bool_,
                        "thread_indices": np.int64, "block_indices": np.int64},
    InstructionBatch: {"thread_indices": np.int64, "block_indices": np.int64},
}


# --------------------------------------------------------------------------- #
# column decoding
# --------------------------------------------------------------------------- #
class TestColumnDecoding:
    @pytest.mark.parametrize("n", [0, 1, 37])
    @pytest.mark.parametrize("make", [access_batch, instruction_batch])
    def test_index_and_flag_columns_are_read_only_arrays(self, make, n):
        batch = make(n)
        decoded = decode_event(json.loads(dumps_record(encode_event(batch))))
        for name, dtype in INDEX_COLUMNS[type(batch)].items():
            column = getattr(decoded, name)
            assert isinstance(column, np.ndarray), name
            assert column.dtype == dtype and column.shape == (n,)
            assert not column.flags.writeable
            assert column.tolist() == list(getattr(batch, name))
            if n:
                with pytest.raises(ValueError):
                    column[0] = column[0]

    def test_kinds_stay_a_tuple_of_members(self):
        decoded = decode_event(encode_event(instruction_batch(9)))
        assert isinstance(decoded.kinds, tuple)
        assert all(type(kind) is InstructionKind for kind in decoded.kinds)
        assert decoded.kinds == instruction_batch(9).kinds

    def test_python_stack_stays_a_tuple_of_str(self):
        event = OperatorStartEvent(op_id=3, name="conv", python_stack=("m.py:10", "n.py:20"))
        decoded = decode_event(encode_event(event))
        assert decoded.python_stack == ("m.py:10", "n.py:20")
        assert type(decoded.python_stack) is tuple

    def test_unrolled_replay_records_carry_plain_scalars(self):
        decoded = decode_event(encode_event(access_batch(5)))
        for access in decoded.unroll():
            assert type(access.address) is int and type(access.is_write) is bool

    @settings(max_examples=60, deadline=None)
    @given(
        columns=st.lists(
            st.tuples(st.integers(min_value=0, max_value=(1 << 63) - 1),
                      st.integers(min_value=1, max_value=1 << 20),
                      st.booleans(),
                      st.integers(min_value=0, max_value=1 << 31),
                      st.integers(min_value=0, max_value=1 << 31),
                      st.sampled_from(list(InstructionKind))),
            max_size=40,
        ),
        launch_id=st.integers(min_value=0, max_value=1 << 40),
    )
    def test_decode_then_encode_is_the_identity(self, columns, launch_id):
        addresses, sizes, flags, threads, blocks, kinds = (
            tuple(col) for col in zip(*columns)) if columns else ((),) * 6
        for batch in (
            MemoryAccessBatch(kernel_launch_id=launch_id, addresses=addresses, sizes=sizes,
                              write_flags=flags, thread_indices=threads,
                              block_indices=blocks),
            InstructionBatch(kernel_launch_id=launch_id, kinds=kinds,
                             thread_indices=threads, block_indices=blocks),
        ):
            record = json.loads(dumps_record(encode_event(batch)))
            assert encode_event(decode_event(record)) == record


# --------------------------------------------------------------------------- #
# compression level
# --------------------------------------------------------------------------- #
class TestCompressionLevel:
    @pytest.mark.parametrize("level", [1, 6, 9])
    def test_digest_is_the_sha256_of_the_event_lines_at_any_level(
            self, tmp_path, monkeypatch, level):
        events = sample_stream()
        expected = b"".join(
            (dumps_record(encode_event(event)) + "\n").encode("utf-8") for event in events
        )
        monkeypatch.setattr(writer_module, "COMPRESSION_LEVEL", level)
        path = tmp_path / "t.pastatrace"
        footer = write_trace(path, events)
        assert event_lines(path) == expected
        assert footer.digest == hashlib.sha256(expected).hexdigest()
        assert TraceReader(path).verify()

    def test_recording_digest_matches_its_event_lines(self, tmp_path):
        trace = tmp_path / "fine.pastatrace"
        api.run("alexnet", device="a100", tools=("access_histogram",),
                fine_grained=True, batch_size=2, record_to=trace)
        lines = event_lines(trace)
        assert TraceReader(trace).footer.digest == hashlib.sha256(lines).hexdigest()
        level9 = tmp_path / "level9.pastatrace"
        recompress(trace, level9, level=9)
        assert event_lines(level9) == lines

    def test_level_9_trace_without_index_reads_the_same_events(self, tmp_path):
        path = tmp_path / "t.pastatrace"
        write_trace(path, sample_stream())
        level9 = tmp_path / "level9.pastatrace"
        recompress(path, level9, level=9)
        assert level9.read_bytes() != path.read_bytes()
        old = TraceReader(level9)
        assert not old.indexed
        assert old.verify()
        assert [encode_event(e) for e in old.events()] == [
            encode_event(e) for e in TraceReader(path).events()
        ]


# --------------------------------------------------------------------------- #
# damaged traces and interrupted writers
# --------------------------------------------------------------------------- #
def corrupt_last_chunk(path) -> None:
    """Make the last chunk's deflate stream invalid (reserved block type)."""
    offset, _length = member_spans(path)[-2]
    data = bytearray(path.read_bytes())
    data[offset + 10] = 0xFF  # first deflate byte after the 10-byte gzip header
    path.write_bytes(bytes(data))


class TestDamagedTraces:
    def test_corrupt_chunk_raises_trace_format_error_with_index(self, tmp_path):
        path = tmp_path / "t.pastatrace"
        write_trace(path, sample_stream())
        corrupt_last_chunk(path)
        reader = TraceReader(path)
        assert reader.indexed
        with pytest.raises(TraceFormatError, match="offset"):
            list(reader.events())
        with pytest.raises(TraceFormatError, match="offset"):
            reader.read_chunk(reader.chunk_count - 1)

    def test_corrupt_chunk_raises_trace_format_error_without_index(self, tmp_path):
        path = tmp_path / "t.pastatrace"
        write_trace(path, sample_stream())
        corrupt_last_chunk(path)
        index_path_for(path).unlink()
        reader = TraceReader(path)
        assert not reader.indexed
        with pytest.raises(TraceFormatError, match="offset"):
            reader.footer
        with pytest.raises(TraceFormatError, match="offset"):
            reader.verify()

    def test_failed_slice_publishes_an_incomplete_trace(self, tmp_path):
        path = tmp_path / "t.pastatrace"
        events = sample_stream()
        write_trace(path, events)
        corrupt_last_chunk(path)
        out = tmp_path / "slice.pastatrace"
        with pytest.raises(TraceFormatError):
            TraceReader(path).slice_to(out)
        with pytest.raises(TraceError, match="incomplete"):
            list(TraceReader(out).events())
        partial = TraceReader(out, allow_incomplete=True)
        assert not partial.footer.complete
        assert partial.footer.abort_reason.startswith("TraceFormatError: ")
        assert 0 < partial.footer.event_count < len(events)
        assert partial.verify()

    def test_writer_unwound_by_an_exception_aborts(self, tmp_path):
        path = tmp_path / "t.pastatrace"
        with pytest.raises(RuntimeError):
            with TraceWriter(path, make_header()) as writer:
                writer.write(MemcpyEvent(size=1))
                raise RuntimeError("workload crashed")
        footer = TraceReader(path, allow_incomplete=True).footer
        assert not footer.complete
        assert footer.abort_reason == "RuntimeError: workload crashed"
        assert footer.event_count == 1

    def test_writer_dropped_without_close_aborts(self, tmp_path):
        path = tmp_path / "t.pastatrace"
        writer = TraceWriter(path, make_header())
        writer.write(MemcpyEvent(size=1))
        del writer
        footer = TraceReader(path, allow_incomplete=True).footer
        assert not footer.complete
        assert "dropped without close()" in footer.abort_reason
