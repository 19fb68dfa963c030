"""The benchmark's workloads.

Each workload builds its inputs from the seed alone, runs operations until
the measuring time is up, checks every operation's outputs against the
pinned reports, and -- in a traced run -- alternates untraced and traced
operations so that the tracing overhead is measured on the same inputs.

* ``live``: megatron-gpt2-345m training, tensor parallel over two devices,
  with the five coarse tools (allocator, launches, callbacks, handler and
  processor dispatch; no access records), then gpt2 training with
  device-side instrumentation and ``access_histogram`` as well (access
  generation and batch hooks).
* ``campaign_replay``: a 2 models x 4 tool groups replay-mode campaign on a
  fresh cache, then its cached rerun (trace encode beside decode, cache put
  beside get).
* ``serve_mixed``: an in-process ``pasta serve`` daemon under two
  closed-loop clients sending warm resubmits, cold profiles and small
  campaigns.
"""

from __future__ import annotations

import itertools
import random
import resource
import shutil
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import calibrate
import layers
from oracle import FreshIds, Oracle, covering_window, pin_key, reports_digest
from tracer import ROOT, Tracer, Tree, summarize

COARSE_TOOLS = ("kernel_frequency", "memory_characteristics", "hotness",
                "inefficiency_locator", "memory_timeline")
FINE_TOOLS = COARSE_TOOLS + ("access_histogram",)

#: Small models and the tool groups of the campaign grid; the serve
#: workload's specs are cells of this grid.
GRID_MODELS = ("alexnet", "resnet18")
GRID_TOOL_GROUPS = (
    ("kernel_frequency",),
    ("hotness", "memory_timeline"),
    ("memory_characteristics", "inefficiency_locator"),
    ("access_histogram",),
)
GRID_BATCH_SIZE = 2

#: Tools whose reports depend on process-wide ids (see oracle.py).
ID_DEPENDENT_TOOLS = frozenset({"memory_timeline", "access_histogram"})

#: Every operation kind runs at least this often, however short the run.
MIN_OPS = 3

#: Raw spans kept for the spans file: those of the first traced drain.
SPAN_DUMP_LIMIT = 200_000

#: A check returns the ways an operation's outputs were wrong (empty = ok).
Check = Callable[[], list[str]]


def grid_spec(model: str, tools: tuple[str, ...]):
    from repro.api.spec import ProfileSpec

    return ProfileSpec(model=model, tools=tools, batch_size=GRID_BATCH_SIZE)


@dataclass
class Sample:
    """One measured operation."""

    kind: str
    seconds: float
    traced: bool
    errors: list[str]
    #: Seconds of the operation's named parts, where it has them.
    parts: dict[str, float] = field(default_factory=dict)
    #: The daemon's job id of a serve request.
    job_id: str = ""
    #: The host's slowdown while the operation ran (``calibrate.py``).
    slowdown: float = 1.0


@dataclass
class Measurement:
    samples: list[Sample] = field(default_factory=list)
    #: Wall seconds of the untraced part of the measurement.
    untraced_wall_s: float = 0.0
    #: The same, each interval divided by the host's slowdown during it.
    scaled_wall_s: float = 0.0
    #: Span trees of the traced operations.
    trees: list[Tree] = field(default_factory=list)
    traced_ops: int = 0
    #: Workload-specific per-layer metrics (serve latencies and ratios).
    extra: dict[str, float] = field(default_factory=dict)
    #: Exact counters that differed between operations doing the same work.
    drift: list[str] = field(default_factory=list)
    #: Raw spans of the first traced operation (or phase).
    first_spans: list[tuple] = field(default_factory=list)
    #: Peak RSS (KiB) at a fixed amount of work, for workloads whose memory
    #: grows with the work done; None means peak RSS at the end of the run.
    peak_rss_kb: Optional[int] = None

    def add_traced(self, spans: list[tuple], ops: int) -> list[Tree]:
        if not self.first_spans:
            self.first_spans = spans[:SPAN_DUMP_LIMIT]
        trees = summarize(spans)
        self.trees.extend(trees)
        self.traced_ops += ops
        return trees


class Workload:
    name = ""
    #: The host speed probe whose cost resembles the workload's.
    probe = calibrate.OBJECTS

    def __init__(self, seed: int, oracle: Oracle, workdir: Path, fresh_ids: FreshIds) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.oracle = oracle
        self.workdir = workdir
        self.fresh_ids = fresh_ids
        #: Program contract violations seen (reported, not counted as failures).
        self.findings: set[str] = set()
        self._dirs = itertools.count()

    def fresh_dir(self, prefix: str) -> Path:
        path = self.workdir / f"{prefix}-{next(self._dirs)}"
        path.mkdir(parents=True)
        return path

    def pin_specs(self) -> list:
        """Specs whose live reports this workload checks (for ``--write-pins``)."""
        raise NotImplementedError

    def setup(self) -> None:
        """One untimed set-up; the benchmark repeats it and times each."""
        raise NotImplementedError

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Measurement:
        raise NotImplementedError

    def close(self) -> None:
        """Release what set-up started."""


class SerialWorkload(Workload):
    """Operations run one after another on the calling thread."""

    def operation(self) -> tuple[Check, dict[str, float]]:
        """Run one operation; return the check of its outputs and part timings."""
        raise NotImplementedError

    def setup(self) -> None:
        self.fresh_ids.restore()
        errors = self.operation()[0]()
        if errors:
            raise RuntimeError(f"{self.name} warm-up produced wrong output: {errors[0]}")

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Measurement:
        result = Measurement()
        first_counts: Optional[dict[str, int]] = None
        before = calibrate.probe_s(self.probe)
        started = perf_counter()
        for index in itertools.count():
            if perf_counter() - started >= seconds and index >= 2 * MIN_OPS:
                break
            traced = tracer is not None and index % 2 == 1
            self.fresh_ids.restore()
            if traced:
                layers.install(tracer)
            op_started = perf_counter()
            check: Optional[Check] = None
            parts: dict[str, float] = {}
            errors: list[str] = []
            try:
                with tracer.span(ROOT) if traced else nullcontext():
                    check, parts = self.operation()
            except Exception as error:  # noqa: BLE001 - a failed operation is a sample
                errors = [f"{type(error).__name__}: {error}"]
            elapsed = perf_counter() - op_started
            if traced:
                tracer.uninstall()
            sample = Sample(self.name, elapsed, traced, errors, parts)
            if check is not None:
                sample.errors = _checked(check)
                del check  # frees the outputs, whose memory the probe then reuses
            after = calibrate.probe_s(self.probe)
            sample.slowdown = calibrate.slowdown(self.probe, before, after)
            before = after
            if not traced:
                result.untraced_wall_s += elapsed
                result.scaled_wall_s += elapsed / sample.slowdown
            result.samples.append(sample)
            if traced:
                trees = result.add_traced(tracer.drain(), 1)
                counts = layers.counter_vector(trees[-1])
                if first_counts is None:
                    first_counts = counts
                elif counts != first_counts:
                    result.drift.append(_drift(first_counts, counts))
        return result


def _checked(check: Check) -> list[str]:
    """The errors ``check`` finds; a check that raises is an error too."""
    try:
        return check()
    except Exception as error:  # noqa: BLE001 - a wrong output is a failed sample
        return [f"checking outputs: {type(error).__name__}: {error}"]


def _drift(expected: dict[str, int], actual: dict[str, int]) -> str:
    changed = {k: (expected[k], actual[k]) for k in expected if expected[k] != actual[k]}
    return f"exact counters drifted (first, now): {changed}"


class Live(SerialWorkload):
    """One coarse tensor-parallel run and one fine-grained run per operation.

    Both parts start from fresh ids, so each matches its live pin; the seed
    orders each part's tool list.
    """

    name = "live"

    def __init__(self, seed: int, oracle: Oracle, workdir: Path, fresh_ids: FreshIds) -> None:
        super().__init__(seed, oracle, workdir, fresh_ids)
        from repro.api.spec import ProfileSpec

        coarse = ProfileSpec(model="megatron_gpt2_345m", mode="train", iterations=1,
                             tools=COARSE_TOOLS, parallelism={"strategy": "tp", "world_size": 2})
        fine = ProfileSpec(model="gpt2", mode="train", iterations=1,
                           fine_grained=True, tools=FINE_TOOLS)
        self.parts = {name: spec.replace(tools=tuple(self.rng.sample(spec.tools, len(spec.tools))))
                      for name, spec in (("coarse", coarse), ("fine", fine))}

    def pin_specs(self) -> list:
        return list(self.parts.values())

    def operation(self) -> tuple[Check, dict[str, float]]:
        from repro.api import execute

        reports, seconds = {}, {}
        for name, spec in self.parts.items():
            self.fresh_ids.restore()
            started = perf_counter()
            # Reports are built lazily; producing them is part of the operation.
            reports[name] = execute(spec).reports()
            seconds[name] = perf_counter() - started

        def check() -> list[str]:
            errors = [self.oracle.check(spec, reports[name]) for name, spec in self.parts.items()]
            return [error for error in errors if error]

        return check, seconds


class CampaignReplay(SerialWorkload):
    """A replay-mode grid on a fresh cache, then the same grid again, cached.

    The grid order is fixed (cell reports depend on it, see ``oracle.py``);
    the seed orders the tools inside each group.
    """

    name = "campaign_replay"
    #: Most of its time is zlib in the trace writer (``replay.write``).
    probe = calibrate.ZLIB

    def __init__(self, seed: int, oracle: Oracle, workdir: Path, fresh_ids: FreshIds) -> None:
        super().__init__(seed, oracle, workdir, fresh_ids)
        from repro.campaign.spec import CampaignSpec

        groups = [self.rng.sample(group, len(group)) for group in GRID_TOOL_GROUPS]
        self.campaign = CampaignSpec(name="perfbench", models=list(GRID_MODELS), tools=groups,
                                     batch_size=GRID_BATCH_SIZE, execution="replay")

    def pin_specs(self) -> list:
        return self.campaign.expand()

    def run_grid(self):
        """Run the grid on a fresh cache, then again; returns both results."""
        from repro.campaign.cache import ResultCache
        from repro.campaign.scheduler import CampaignScheduler

        cache = ResultCache(self.fresh_dir("cache"))
        scheduler = CampaignScheduler(executor="serial", cache=cache)
        started = perf_counter()
        cold = scheduler.run(self.campaign)
        middle = perf_counter()
        warm = scheduler.run(self.campaign)
        seconds = {"cold": middle - started, "warm": perf_counter() - middle}
        return cache, cold, warm, seconds

    def grid_pins(self) -> dict[str, str]:
        """The strict pins: each cell's reports when the grid runs from fresh ids."""
        self.fresh_ids.restore()
        cold = self.run_grid()[1]
        return {pin_key(o.job): reports_digest(o.record["reports"]) for o in cold.outcomes}

    def operation(self) -> tuple[Check, dict[str, float]]:
        cache, cold, warm, seconds = self.run_grid()

        def check() -> list[str]:
            cells = len(self.campaign.expand())
            errors = []
            if (cold.executed, warm.cached) != (cells, cells):
                errors.append(f"expected {cells} executed then {cells} cached cells, got "
                              f"{cold.executed} executed, {warm.cached} cached")
            stats = (cache.stats.misses, cache.stats.writes, cache.stats.hits)
            if stats != (cells, cells, cells):
                errors.append(f"cache misses/writes/hits {stats}, expected {cells} each")
            for outcome in cold.outcomes + warm.outcomes:
                if not outcome.ok:
                    errors.append(f"{outcome.job.label()}: {outcome.status} {outcome.error}")
                    continue
                reports = outcome.record["reports"]
                error = self.oracle.check(outcome.job, reports, "campaign_replay")
                if error:
                    errors.append(error)
                elif self.oracle.check(outcome.job, reports):
                    self.findings.add(f"replay-mode cell {pin_key(outcome.job)} differs "
                                      f"from a live run of its spec")
            shutil.rmtree(cache.root)
            return errors

        return check, seconds


class ServeMixed(Workload):
    """Two closed-loop clients against one in-process daemon."""

    name = "serve_mixed"
    clients = 2
    workers = 2
    #: One shuffled deck per 18 requests, so class shares are exact whatever
    #: the seed.  The counts split client time about evenly between service
    #: alone (warm) and service plus execution (a quarter each for cold and
    #: campaign), so ``ops_per_s`` weighs both: on the reference host a cold
    #: round trip takes about 1.5x and a campaign about 2.7x a warm one.
    #: Each run reports the measured shares (README.md).
    deck = ("warm",) * 12 + ("cold",) * 4 + ("campaign",) * 2
    #: The measuring time is split into phases of about this many seconds.
    #: The host's speed, which changes within seconds, is probed between
    #: them, when no request is in flight; traced runs alternate untraced and
    #: traced phases.
    phase_s = 2.0
    #: The daemon keeps every finished job in memory, so its RSS grows with
    #: the requests served; peak RSS is taken after this many, which even a
    #: host at half speed completes within the measuring time.
    rss_after_requests = 800

    def __init__(self, seed: int, oracle: Oracle, workdir: Path, fresh_ids: FreshIds) -> None:
        super().__init__(seed, oracle, workdir, fresh_ids)
        g = GRID_TOOL_GROUPS
        self.warm_specs = [grid_spec("alexnet", g[0]), grid_spec("alexnet", g[1]),
                           grid_spec("resnet18", g[0]), grid_spec("resnet18", g[2])]
        # ``memory_timeline`` keys its report by a process-wide device index,
        # so the third cold spec checks remote-equals-local where the program
        # breaks it (see oracle.py); its mismatches are findings, not failures.
        self.cold_bases = [grid_spec("alexnet", g[0]), grid_spec("alexnet", g[2]),
                           grid_spec("alexnet", g[1])]
        self.campaign_groups = [list(g[0]), ["hotness"]]
        self.daemon = None
        # Unique grid windows make each cold spec's digest new to the cache.
        self._unique = itertools.count(self.rng.randrange(1_000_000) * 1000)
        self._client_rngs = [random.Random(self.rng.random()) for _ in range(self.clients)]

    def pin_specs(self) -> list:
        from repro.campaign.spec import CampaignSpec

        campaign = CampaignSpec(name="pins", models=["alexnet"], tools=self.campaign_groups,
                                batch_size=GRID_BATCH_SIZE,
                                knob_sweep=[covering_window(0)])
        return (self.warm_specs + self.cold_bases
                + [spec.replace(knobs=covering_window(0)) for spec in self.cold_bases]
                + campaign.expand())

    def setup(self) -> None:
        from repro.serve.client import connect
        from repro.serve.daemon import PastaDaemon

        self.close()
        self.daemon = PastaDaemon(self.fresh_dir("serve"), workers=self.workers).start()
        client = connect(self.daemon.url, namespace="warmup")
        for spec in self.warm_specs:
            # Nothing else runs in the daemon yet: the job starts from fresh ids.
            self.fresh_ids.restore()
            result = client.submit(spec.to_dict()).result(timeout=120)
            error = self.oracle.check(spec, result.reports())
            if error:
                raise RuntimeError(f"serve warm-up produced wrong output: {error}")

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.close()
            self.daemon = None

    # -------------------------------------------------------------- #
    # one request of each class
    # -------------------------------------------------------------- #
    def _request(self, kind: str, rng: random.Random) -> tuple[dict, Callable, Callable]:
        """``(payload, outputs, check)``: ``outputs(result)`` fetches what the
        request produced (timed), ``check(outputs)`` verifies it (untimed)."""
        if kind in ("warm", "cold"):
            spec = rng.choice(self.warm_specs if kind == "warm" else self.cold_bases)
            if kind == "cold":
                spec = spec.replace(knobs=covering_window(next(self._unique)))
            return (spec.to_dict(), lambda result: (result.cache_hit, result.reports()),
                    lambda outputs: self._check_profile(spec, kind == "warm", *outputs))
        unique = next(self._unique)
        payload = {"kind": "campaign", "spec": {
            "name": f"perfbench-{unique}", "models": ["alexnet"],
            "tools": self.campaign_groups, "batch_size": GRID_BATCH_SIZE,
            "knob_sweep": [covering_window(unique)],
        }}
        return payload, self._campaign_outputs, self._check_campaign

    def _check_profile(self, spec, warm: bool, cache_hit: bool, reports) -> list[str]:
        errors = []
        if cache_hit != warm:
            errors.append(f"{'warm' if warm else 'cold'} request answered with "
                          f"cache_hit={cache_hit}")
        error = self.oracle.check(spec, reports)
        if error and not warm and ID_DEPENDENT_TOOLS.intersection(spec.tools):
            self.findings.add(f"remote reports of {pin_key(spec)} differ from a local run "
                              f"of its spec")
        elif error:
            errors.append(error)
        return errors

    def _campaign_outputs(self, result):
        """The campaign's counts and every cell's full record."""
        counts = (result.total, result.executed, result.failed)
        return counts, [(cell, result.cell_record(str(cell["digest"]))) for cell in result.cells]

    def _check_campaign(self, outputs) -> list[str]:
        from repro.api.spec import ProfileSpec

        counts, cells = outputs
        expected = len(self.campaign_groups)
        if counts != (expected, expected, 0):
            return [f"campaign (total, executed, failed) = {counts}, expected "
                    f"({expected}, {expected}, 0)"]
        errors = []
        for cell, record in cells:
            if record is None:
                errors.append(f"campaign cell {cell['label']} missing from the cache")
                continue
            error = self.oracle.check(ProfileSpec.from_dict(record["job"]), record["reports"])
            if error:
                errors.append(error)
        return errors

    # -------------------------------------------------------------- #
    # measuring
    # -------------------------------------------------------------- #
    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Measurement:
        result = Measurement()
        manager = self.daemon.manager
        traced_jobs: list[str] = []
        hits = executed = 0
        self._served = 0
        phases = max(2, 2 * round(seconds / (2 * self.phase_s)))
        for index in range(phases):
            traced = tracer is not None and index % 2 == 1
            before = (manager.cache_hits, manager.executed)
            # The clients and the daemon's workers run on every CPU.
            before_s = calibrate.probe_s(self.probe, every_cpu=True)
            if traced:
                layers.install(tracer)
            try:
                requests, wall = self._phase(seconds / phases,
                                             tracer if traced else None, result)
            finally:
                if traced:
                    tracer.uninstall()
            slowdown = calibrate.slowdown(self.probe, before_s,
                                          calibrate.probe_s(self.probe, every_cpu=True))
            # Outputs are checked once the clients are done, off the clock.
            for sample, outputs, check in requests:
                sample.slowdown = slowdown
                if not sample.errors:
                    sample.errors = _checked(lambda: check(outputs))
                result.samples.append(sample)
            if traced:
                result.add_traced(tracer.drain(), len(requests))
                traced_jobs.extend(sample.job_id for sample, _, _ in requests)
                hits += manager.cache_hits - before[0]
                executed += manager.executed - before[1]
            else:
                result.untraced_wall_s += wall
                result.scaled_wall_s += wall / slowdown
        if tracer is not None:
            result.extra = self._serve_metrics(result.trees, traced_jobs, hits, executed)
        return result

    def _phase(self, seconds: float, tracer: Optional[Tracer], result: Measurement):
        """Both clients' requests as ``(sample, outputs, check)`` and the
        phase's wall seconds; sets the result's peak RSS after
        ``rss_after_requests`` requests of the measurement."""
        requests: list[tuple[Sample, object, Callable]] = []
        lock = threading.Lock()
        deadline = perf_counter() + seconds

        def client_loop(index: int) -> None:
            from repro.serve.client import connect

            client = connect(self.daemon.url, namespace=f"bench-{index}")
            rng = self._client_rngs[index]
            deck: list[str] = []
            done = 0
            while perf_counter() < deadline or done < MIN_OPS:
                if not deck:
                    deck = list(self.deck)
                    rng.shuffle(deck)
                kind = deck.pop()
                payload, outputs_of, check = self._request(kind, rng)
                sample = Sample(kind, 0.0, tracer is not None, [])
                outputs = None
                started = perf_counter()
                try:
                    with tracer.span(ROOT) if tracer is not None else nullcontext():
                        handle = client.submit(payload)
                        sample.job_id = handle.id
                        outputs = outputs_of(handle.result(timeout=120))
                except Exception as error:  # noqa: BLE001 - a failed request is a sample
                    sample.errors = [f"{type(error).__name__}: {error}"]
                sample.seconds = perf_counter() - started
                done += 1
                with lock:
                    requests.append((sample, outputs, check))
                    self._served += 1
                    if self._served == self.rss_after_requests:
                        result.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        threads = [threading.Thread(target=client_loop, args=(i,), name=f"perfbench-client-{i}")
                   for i in range(self.clients)]
        started = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 150)
            if thread.is_alive():
                raise RuntimeError(f"{thread.name} did not finish")
        return requests, perf_counter() - started

    def _serve_metrics(self, trees: list[Tree], job_ids: list[str],
                       hits: int, executed: int) -> dict[str, float]:
        requests = [t for t in trees if t.root_layer == ROOT]
        by_root = {layer: [t.duration_ns for t in trees if t.root_layer == layer]
                   for layer in ("serve.jobmanager_submit", "serve.execute")}
        waits = []
        for job_id in job_ids:
            job = self.daemon.manager.get(job_id) if job_id else None
            if job is not None and job.started_unix is not None:
                waits.append(int((job.started_unix - job.created_unix) * 1e9))
        return {
            "serve.submit_ms": layers.median_ms([t.total_ns["serve.submit"] for t in requests]),
            "serve.jobmanager_submit_ms": layers.median_ms(by_root["serve.jobmanager_submit"]),
            "serve.queue_wait_ms": layers.median_ms(waits),
            "serve.stream_ms": layers.median_ms([t.total_ns["serve.stream"] for t in requests]),
            "serve.http_requests_per_job":
                sum(t.calls.get("serve.http", 0) for t in requests) / max(1, len(requests)),
            "serve.execute_ms": layers.median_ms(by_root["serve.execute"]),
            "serve.cache_hit_ratio": hits / (hits + executed) if hits + executed else 0.0,
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Live, CampaignReplay, ServeMixed)
}
