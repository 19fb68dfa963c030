"""Which program functions belong to which layer, and the per-layer metrics.

:func:`install` wraps the public entry points of every layer with
:class:`~tracer.Tracer` spans.  Nothing in the program is edited: the
wrappers live on the classes (and, for functions another module imported by
name, on that importing module) only between ``install`` and
``Tracer.uninstall``.

:func:`per_op` turns the span trees of a traced run into the
``per_layer`` metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import statistics

from tracer import ROOT, Tracer, Tree

#: The six bundled tools the workloads attach.
TOOLS = (
    "access_histogram",
    "hotness",
    "inefficiency_locator",
    "kernel_frequency",
    "memory_characteristics",
    "memory_timeline",
)

#: Per-layer self-time metric -> layer, reported in seconds per operation.
SELF_TIME_S = {
    "op.self_s": ROOT,
    "dlframework.engine_s": "dlframework.engine",
    "dlframework.alloc_s": "dlframework.alloc",
    "gpusim.launch_s": "gpusim.launch",
    "gpusim.access_gen_s": "gpusim.access_gen",
    "vendors.callback_s": "vendors.callback",
    "handler.emit_s": "handler.emit",
    "processor.submit_s": "processor.submit",
    **{f"tools.{name}.hook_s": f"tools.{name}.hook" for name in TOOLS},
    "tools.report_s": "tools.report",
    "replay.write_s": "replay.write",
    "replay.read_s": "replay.read",
    "replay.replay_s": "replay.replay",
    "campaign.record_s": "campaign.record",
    "campaign.cache_get_s": "campaign.cache_get",
    "campaign.cache_put_s": "campaign.cache_put",
    "campaign.scheduler_self_s": "campaign.scheduler",
}

#: Exact work counters: metric -> (layer, "calls" | "work"), per operation.
COUNTS = {
    "dlframework.alloc_ops": ("dlframework.alloc", "calls"),
    "gpusim.kernels": ("gpusim.launch", "calls"),
    "gpusim.access_records": ("gpusim.access_gen", "work"),
    "handler.events": ("handler.emit", "calls"),
    "processor.events": ("processor.submit", "calls"),
    "replay.bytes_written": ("replay.write", "work"),
    "replay.events_read": ("replay.read", "work"),
    "campaign.cache_gets": ("campaign.cache_get", "calls"),
    "campaign.cache_hits": ("campaign.cache_get", "work"),
    "campaign.cache_puts": ("campaign.cache_put", "calls"),
}

#: Serve latencies (median per job) and ratios, from the serve workload only.
SERVE_METRICS = (
    "serve.submit_ms",
    "serve.jobmanager_submit_ms",
    "serve.queue_wait_ms",
    "serve.stream_ms",
    "serve.http_requests_per_job",
    "serve.execute_ms",
    "serve.cache_hit_ratio",
)


def _hit(record: object, _args: tuple) -> int:
    return int(record is not None)


def _access_records(columns: object, _args: tuple) -> int:
    return len(columns.addresses)  # type: ignore[attr-defined]


def _trace_event_bytes(_footer: object, args: tuple) -> int:
    """Compressed bytes of the trace's event chunks, from its seek index.

    Not the file size: the header records the wall-clock creation time, so
    its compressed length varies from run to run.
    """
    from repro.replay.writer import index_path_for

    index = json.loads(index_path_for(args[0].path).read_text(encoding="utf-8"))
    return sum(chunk["length"] for chunk in index["chunks"])


def _with_subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        out.append(current)
        todo.extend(current.__subclasses__())
    return out


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points; undo with ``tracer.uninstall()``."""
    import repro.api.runner as runner_module
    import repro.campaign.scheduler as scheduler_module
    from repro.campaign.cache import ResultCache
    from repro.core.handler import PastaEventHandler
    from repro.core.processor import PastaEventProcessor
    from repro.core.registry import REGISTRY
    from repro.dlframework.allocator import CachingAllocator
    from repro.dlframework.engine import ExecutionEngine
    from repro.dlframework.parallel import ParallelRunner
    from repro.gpusim.kernel import KernelLaunch
    from repro.gpusim.runtime import AcceleratorRuntime
    from repro.replay.reader import TraceReader
    from repro.replay.replayer import TraceReplayer
    from repro.replay.writer import TraceWriter
    from repro.serve.client import ServeClient
    from repro.serve.jobs import JobManager
    from repro.vendors.base import ProfilingBackend

    wrap = tracer.wrap_method
    # dlframework: model execution and the caching allocator.
    for name in ("prepare", "run_training", "run_inference"):
        wrap(ExecutionEngine, name, "dlframework.engine")
    wrap(ParallelRunner, "run", "dlframework.engine")
    for name in ("allocate_tensor", "materialize", "free_tensor"):
        wrap(CachingAllocator, name, "dlframework.alloc")
    # gpusim: kernel launches and device-side record generation.
    for cls in _with_subclasses(AcceleratorRuntime):
        if "launch_kernel" in vars(cls):
            wrap(cls, "launch_kernel", "gpusim.launch")
    wrap(KernelLaunch, "generate_access_columns", "gpusim.access_gen", _access_records)
    wrap(KernelLaunch, "generate_instruction_batch", "gpusim.access_gen")
    # vendors: every runtime callback of every backend.
    for cls in _with_subclasses(ProfilingBackend):
        for name in [n for n in vars(cls) if n.startswith("on_")]:
            wrap(cls, name, "vendors.callback")
    # core: the handler -> processor -> tools pipeline.
    wrap(PastaEventHandler, "emit", "handler.emit")
    wrap(PastaEventProcessor, "submit", "processor.submit")
    for name in TOOLS:
        tool_class = REGISTRY.get("tools", name)
        wrap(tool_class, "handle_event", f"tools.{name}.hook")
        wrap(tool_class, "report", "tools.report")
    # replay: trace codec and offline re-drive.
    wrap(TraceWriter, "write", "replay.write")
    wrap(TraceWriter, "close", "replay.write", _trace_event_bytes)
    tracer.wrap_generator_method(TraceReader, "events", "replay.read")
    wrap(TraceReplayer, "run", "replay.replay")
    # campaign: the scheduler imported record_workload_trace by name.
    wrap(scheduler_module.CampaignScheduler, "run", "campaign.scheduler")
    tracer.patch(scheduler_module, "record_workload_trace", tracer.traced(
        "campaign.record", scheduler_module.record_workload_trace))
    wrap(ResultCache, "get", "campaign.cache_get", _hit)
    wrap(ResultCache, "put", "campaign.cache_put")
    # serve: client calls, the job manager, and execution in the daemon
    # (JobManager looks execute_payload up in repro.api.runner per call).
    wrap(ServeClient, "submit", "serve.submit")
    tracer.wrap_generator_method(ServeClient, "stream", "serve.stream")
    wrap(ServeClient, "status", "serve.status")
    wrap(ServeClient, "_open", "serve.http")
    wrap(JobManager, "submit", "serve.jobmanager_submit")
    tracer.patch(runner_module, "execute_payload", tracer.traced(
        "serve.execute", runner_module.execute_payload))


def per_op(trees: list[Tree], ops: int) -> dict[str, float]:
    """Self time (s) and counts of every layer, averaged over ``ops``.

    Work a request causes on other threads (the daemon's) is a tree of its
    own; dividing the sum over all trees by the operation count charges it to
    the operations that caused it.
    """
    out: dict[str, float] = {}
    for metric, layer in SELF_TIME_S.items():
        out[metric] = sum(tree.self_ns.get(layer, 0) for tree in trees) / ops / 1e9
    for metric, (layer, kind) in COUNTS.items():
        out[metric] = sum(getattr(tree, kind).get(layer, 0) for tree in trees) / ops
    gets = out["campaign.cache_gets"]
    out["campaign.cache_hit_ratio"] = out["campaign.cache_hits"] / gets if gets else 0.0
    return out


def counter_vector(tree: Tree) -> dict[str, int]:
    """The exact work counters of one tree (identical for identical work)."""
    return {metric: getattr(tree, kind).get(layer, 0)
            for metric, (layer, kind) in COUNTS.items()}


def self_time_table(trees: list[Tree], ops: int) -> list[tuple[str, float]]:
    """Every layer seen, with its mean self seconds per operation, largest first."""
    totals: dict[str, int] = {}
    for tree in trees:
        for layer, ns in tree.self_ns.items():
            totals[layer] = totals.get(layer, 0) + ns
    return sorted(((layer, ns / ops / 1e9) for layer, ns in totals.items()),
                  key=lambda row: -row[1])


def median_ms(values_ns: list[int]) -> float:
    return statistics.median(values_ns) / 1e6 if values_ns else 0.0
