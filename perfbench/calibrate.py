"""Host speed probes: fixed work timed next to each operation.

On the 2-vCPU reference host the speed of the same code changes by up to
about 2.5x, within seconds, and slow periods can last for minutes.  The
benchmark times a probe in the workload's process, right before and after
every serial operation and every serve phase, and divides the time measured
in between by the host's slowdown: the probe's time over its reference time.
Garbage collection is paused while a probe runs, so the program's heap
cannot slow it, and no change to the program can move it.

Not all code slows alike.  Object-heavy Python slows more than zlib does, so
each workload uses the probe that resembles its dominant cost (README.md,
Host noise).
"""

from __future__ import annotations

import gc
import json
import os
import random
import zlib
from time import perf_counter
from typing import Callable, NamedTuple


def objects_loop() -> int:
    """Fixed work, object-heavy like most of the profiler."""
    data = [{"id": i, "name": f"k{i}", "vals": (i, i * 2, i % 7)} for i in range(20000)]
    index = {d["name"]: d for d in data}
    total = sum(index[f"k{i}"]["vals"][2] for i in range(0, 20000, 3))
    text = json.dumps(data[:5000])
    data.sort(key=lambda d: (d["vals"][2], -d["id"]))
    return total + len(text)


_rng = random.Random(0)
#: About 0.8 MB of JSON records, like the traces and results the program writes.
DATA = json.dumps([{"id": i, "name": f"k{i}", "value": _rng.random(),
                    "count": _rng.randrange(1 << 20)} for i in range(10000)]).encode()


def zlib_loop() -> int:
    """Fixed work: compress ``DATA`` as the trace writer compresses its chunks."""
    return len(zlib.compress(DATA, 6))


class Probe(NamedTuple):
    loop: Callable[[], int]
    #: Seconds of one loop at the reference speed.
    reference_s: float


#: Reference: the loop's time on the calm reference host.
OBJECTS = Probe(objects_loop, 0.024)
#: Reference: chosen so that ``campaign_replay``'s scaled ``run_s`` equals its
#: raw ``run_s`` on the calm reference host, 0.99 s.
ZLIB = Probe(zlib_loop, 0.0188)


def probe_s(probe: Probe, every_cpu: bool = False) -> float:
    """The faster of two loops, in seconds, garbage collection paused.

    The reference host's two vCPUs change speed independently.  With
    ``every_cpu`` the calling thread runs the probe pinned to each CPU it may
    use in turn, and the result is the mean: the speed that work spread over
    all of them sees.
    """
    if every_cpu:
        allowed = os.sched_getaffinity(0)
        try:
            times = []
            for cpu in sorted(allowed):
                os.sched_setaffinity(0, {cpu})
                times.append(probe_s(probe))
        finally:
            os.sched_setaffinity(0, allowed)
        return sum(times) / len(times)
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(2):
            started = perf_counter()
            probe.loop()
            times.append(perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return min(times)


def slowdown(probe: Probe, before_s: float, after_s: float) -> float:
    """The host's slowdown over an interval bracketed by two probes."""
    return (before_s + after_s) / 2 / probe.reference_s
