#!/usr/bin/env python3
"""Same-host benchmark of the whole profiler, one workload per process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload live --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --write-pins

``--trace 0`` measures the end-to-end metrics with the program untouched.
``--trace 1`` wraps each layer's entry points with spans (see ``layers.py``)
and reports per-layer self times, exact work counters and the tracing
overhead instead.  Either way every operation's reports are checked against
``pins.json``, and the last line of standard output is one JSON object::

    {"correct": true, "attempted": 40, "failed": 0, "metrics": {...}}

Human-readable tables, provenance and the full result (with one operation's
raw spans in a traced run) go to earlier lines and to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Optional

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
OUT = CHECKOUT / ".perfbench-out"

#: Set-up is repeated this many times per run; ``setup_s`` uses the median.
SETUP_REPEATS = 3

#: Environment variables that would change what the program does.
REFUSED_ENV = ("PASTA_TELEMETRY", "PASTA_FAULTS")

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s"}

def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_ratio") or metric.endswith("_per_job"):
        return "ratio"
    if metric == "replay.bytes_written":
        return "B"
    return "count"


def _git_rev() -> Optional[str]:
    """The checked-out commit, read from ``.git`` (None outside a clone)."""
    git = CHECKOUT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args: argparse.Namespace) -> dict[str, object]:
    import numpy

    import repro

    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": _git_rev(),
        "src_sha256": digest.hexdigest(),
        "repro_version": repro.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "system": f"{platform.system()} {platform.release()} {platform.machine()}",
    }


def _import_program() -> float:
    """Import everything the workloads use; returns the seconds it took."""
    started = perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401

    import repro.api  # noqa: F401
    import repro.campaign.scheduler  # noqa: F401
    import repro.replay.replayer  # noqa: F401
    import repro.serve.client  # noqa: F401
    import repro.serve.daemon  # noqa: F401
    import repro.tools  # noqa: F401
    return perf_counter() - started


def end_to_end(measurement, setup_s: float, calibrated: bool) -> dict[str, float]:
    """The end-to-end metrics; ``calibrated`` divides each operation's time
    by the host's slowdown while it ran (``setup_s`` comes scaled or not).

    ``ops_per_s`` counts only the operations' own time, not the checks of
    their outputs."""
    untraced = [s for s in measurement.samples if not s.traced]
    seconds = [s.seconds / s.slowdown if calibrated else s.seconds for s in untraced]
    wall_s = measurement.scaled_wall_s if calibrated else measurement.untraced_wall_s
    return {
        "setup_s": setup_s,
        "run_s": statistics.median(seconds),
        "peak_rss_mb": (measurement.peak_rss_kb
                        or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) / 1024,
        "ops_per_s": len(untraced) / wall_s,
    }


def per_layer(measurement) -> dict[str, float]:
    import layers

    metrics = layers.per_op(measurement.trees, measurement.traced_ops)
    metrics.update({name: measurement.extra.get(name, 0.0) for name in layers.SERVE_METRICS})
    traced = [s.seconds / s.slowdown for s in measurement.samples if s.traced]
    untraced = [s.seconds / s.slowdown for s in measurement.samples if not s.traced]
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    return metrics


def percentile(values: list[float], fraction: float) -> Optional[float]:
    """The ``fraction`` quantile, or None with fewer than 10 samples beyond it."""
    if len(values) * (1 - fraction) < 10:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[round(fraction * 100) - 1]


def class_latencies(measurement) -> dict[str, dict[str, object]]:
    """Latency (ms) of each operation class and part, untraced, with each
    class's share of the summed operation time (n x mean latency)."""
    series: dict[str, list[float]] = {}
    for sample in measurement.samples:
        if not sample.traced:
            series.setdefault(sample.kind, []).append(sample.seconds * 1000)
            for part, seconds in sample.parts.items():
                series.setdefault(f"{sample.kind}.{part}", []).append(seconds * 1000)
    total_ms = sum(s.seconds * 1000 for s in measurement.samples if not s.traced)
    return {kind: {"n": len(values), "mean_ms": statistics.fmean(values),
                   "p50_ms": statistics.median(values), "p95_ms": percentile(values, 0.95),
                   "time_share": None if "." in kind else sum(values) / total_ms}
            for kind, values in sorted(series.items())}


def write_pins() -> int:
    """Recompute ``pins.json``; warn about specs whose reports depend on history."""
    _import_program()
    from repro.api import execute

    from oracle import PINS_PATH, FreshIds, Oracle, pin_key, reports_digest
    from workloads import WORKLOADS, CampaignReplay

    fresh_ids = FreshIds()
    workdir = Path(tempfile.mkdtemp(prefix="pins-", dir=tempfile.tempdir))
    try:
        specs: dict[str, list] = {}
        for cls in WORKLOADS.values():
            for spec in cls(0, Oracle({}), workdir, fresh_ids).pin_specs():
                specs.setdefault(pin_key(spec), []).append(spec)
        live = {}
        for key, variants in sorted(specs.items()):
            digests = set()
            for spec in variants:
                fresh_ids.restore()
                digests.add(reports_digest(execute(spec).reports()))
            if reports_digest(execute(variants[0]).reports()) not in digests:
                print(f"warning: reports of {key} depend on what ran before in the process")
            if len(digests) != 1:
                print(f"specs sharing pin {key} disagree: {sorted(digests)}", file=sys.stderr)
                return 1
            live[key] = digests.pop()
            print(f"live      {live[key][:12]}  {key}")
        grid = CampaignReplay(0, Oracle({}), workdir, fresh_ids).grid_pins()
        for key, digest in sorted(grid.items()):
            same = "" if live.get(key) == digest else "  (differs from live)"
            print(f"campaign  {digest[:12]}  {key}{same}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    PINS_PATH.write_text(json.dumps({"live": live, "campaign_replay": grid}, indent=2,
                                    sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(live)} live and {len(grid)} campaign pins to {PINS_PATH}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="recompute pins.json from live local runs and exit")
    args = parser.parse_args(argv)

    refused = [name for name in REFUSED_ENV if os.environ.get(name)]
    if refused:
        print(f"refusing to run with {', '.join(refused)} set: the benchmark measures "
              f"the program with telemetry and fault injection off", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # Every temporary file the program makes stays inside the checkout.
    tmp = OUT / "tmp"
    tmp.mkdir(exist_ok=True)
    tempfile.tempdir = str(tmp)
    if args.write_pins:
        return write_pins()

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")

    import_s = _import_program()
    import calibrate
    from oracle import FreshIds, Oracle
    from tracer import Tracer

    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp))
    workload = WORKLOADS[args.workload](args.seed, Oracle.load(), workdir, FreshIds())
    try:
        setups, setup_slowdowns = [], []
        for _ in range(SETUP_REPEATS):
            before = calibrate.probe_s(workload.probe)
            started = perf_counter()
            workload.setup()
            setups.append(perf_counter() - started)
            setup_slowdowns.append(calibrate.slowdown(workload.probe, before,
                                                      calibrate.probe_s(workload.probe)))
        tracer = Tracer() if args.trace else None
        measurement = workload.measure(args.seconds, tracer)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for s in measurement.samples if s.errors)
    setup_s = import_s + statistics.median(setups)
    raw = end_to_end(measurement, setup_s, calibrated=False)
    calibrated = end_to_end(measurement, setup_s / statistics.median(setup_slowdowns),
                            calibrated=True)
    metrics = per_layer(measurement) if args.trace else calibrated
    units = END_TO_END_UNITS if not args.trace else {m: _unit(m) for m in metrics}
    report = {
        "provenance": provenance(args),
        "setup_repeats_s": setups,
        "import_s": import_s,
        "setup_slowdowns": setup_slowdowns,
        "operation_slowdowns": _summary([s.slowdown for s in measurement.samples]),
        "attempted": len(measurement.samples),
        "failed": failed,
        "fail_rate": failed / len(measurement.samples),
        "errors": sorted({e for s in measurement.samples for e in s.errors})[:20],
        "drift": measurement.drift,
        "contract_violations": sorted(workload.findings),
        "classes": class_latencies(measurement),
        "metrics": metrics,
        "raw_metrics": raw,
        "calibrated_metrics": calibrated,
    }
    if args.trace:
        import layers

        report["self_time_s"] = layers.self_time_table(measurement.trees, measurement.traced_ops)
    _print_tables(report, units)
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        _write_spans(results / f"{stem}.spans.jsonl", measurement.first_spans)

    correct = failed == 0 and not measurement.drift
    print(json.dumps({
        "correct": correct,
        "attempted": len(measurement.samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def _summary(values: list[float]) -> dict[str, float]:
    return {"min": min(values), "median": statistics.median(values), "max": max(values)}


def _print_tables(report: dict, units: dict[str, str]) -> None:
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    print(f"operations {report['attempted']}  failed {report['failed']}  "
          f"fail_rate {report['fail_rate']:.4f}")
    for error in report["errors"]:
        print(f"  error: {error}")
    for drift in report["drift"]:
        print(f"  drift: {drift}")
    for finding in report["contract_violations"]:
        print(f"  program contract violation (not counted as failed): {finding}")
    for kind, row in report["classes"].items():
        tail = "n/a (<10 samples beyond)" if row["p95_ms"] is None else f"{row['p95_ms']:.3f} ms"
        share = "" if row["time_share"] is None else f"  share {row['time_share']:.3f}"
        print(f"  {kind:>10}: n={row['n']:<5} mean {row['mean_ms']:.3f} ms  "
              f"p50 {row['p50_ms']:.3f} ms  p95 {tail}{share}")
    for name, value in report["metrics"].items():
        print(f"  {name:<36} {value:>16.6f} {units[name]}")
    if "self_time_s" in report:
        print("self time per operation, every layer (covers the root spans):")
        for layer, seconds in report["self_time_s"]:
            print(f"  {layer:<36} {seconds:>16.6f} s")


def _write_spans(path: Path, spans: list[tuple]) -> None:
    from tracer import END, LAYER, N, PARENT, SID, START, TID

    with path.open("w", encoding="utf-8") as out:
        for span in spans:
            out.write(json.dumps({"id": span[SID], "parent": span[PARENT], "layer": span[LAYER],
                                  "start_ns": span[START], "end_ns": span[END], "n": span[N],
                                  "thread": span[TID]}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
