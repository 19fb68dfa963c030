"""A slowdown injected into one layer must show in that layer's self time only.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

Each case patches one layer's public function (in this process only) so that
every call takes about 1.3 times as long, by spinning after the real call.
Traced operations with and without the slowdown run in back-to-back pairs.
Over the pairs, the median ratio of the slowed layer's self time must be
about 1.3, and that of every other layer with a visible share of the
operation must stay near 1.  Garbage collection is
paused during each operation: a collection lands in whichever layer happens
to allocate, which would blur the comparison.  For the same reason the test
needs a host that other processes do not saturate: a preemption lands in
whichever span is running.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter_ns

import pytest

import layers
import repro.tools  # noqa: F401  (registers the bundled tools)
from repro.api import execute
from repro.api.spec import ProfileSpec
from repro.core.registry import REGISTRY
from tracer import ROOT, Tracer, summarize

SLOWDOWN = 1.3
PAIRS = 25
TOOLS = ("kernel_frequency", "hotness", "memory_characteristics")
SPEC = ProfileSpec(model="gpt2", tools=TOOLS)

#: layer -> (tool, method) pairs patched to slow it; all leaf functions, so
#: the spin lands in the layer's own self time.
CASES = {
    "tools.hotness.hook": [("hotness", "handle_event")],
    "tools.report": [(tool, "report") for tool in TOOLS],
}


def slowed(fn):
    """``fn`` taking ``SLOWDOWN`` times as long per call."""

    def wrapper(*args, **kwargs):
        started = perf_counter_ns()
        result = fn(*args, **kwargs)
        deadline = perf_counter_ns() + (perf_counter_ns() - started) * (SLOWDOWN - 1)
        while perf_counter_ns() < deadline:
            pass
        return result

    return wrapper


def traced_self_times(slow_targets) -> dict[str, int]:
    """Self nanoseconds per layer of one traced operation."""
    tracer = Tracer()
    for tool, method in slow_targets:
        cls = REGISTRY.get("tools", tool)
        tracer.patch(cls, method, slowed(getattr(cls, method)))
    layers.install(tracer)
    gc.collect()
    gc.disable()
    try:
        with tracer.span(ROOT):
            execute(SPEC).reports()
    finally:
        gc.enable()
        tracer.uninstall()
    (tree,) = summarize(tracer.drain())
    assert sum(tree.self_ns.values()) == tree.duration_ns
    return dict(tree.self_ns)


@pytest.mark.parametrize("slowed_layer", sorted(CASES))
def test_injected_slowdown_is_attributed_to_its_layer(slowed_layer: str) -> None:
    traced_self_times([])  # warm caches before measuring
    pairs = []
    for index in range(PAIRS):
        # Host speed drifts over seconds, so compare the two operations of a
        # pair (run back to back, in alternating order), not two long series.
        if index % 2:
            slow = traced_self_times(CASES[slowed_layer])
            base = traced_self_times([])
        else:
            base = traced_self_times([])
            slow = traced_self_times(CASES[slowed_layer])
        pairs.append((base, slow))

    total = statistics.median(sum(base.values()) for base, _ in pairs)
    visible = [layer for layer in pairs[0][0]
               if statistics.median(base.get(layer, 0) for base, _ in pairs) > 0.02 * total]
    ratios = {layer: statistics.median(slow.get(layer, 0) / base[layer]
                                       for base, slow in pairs if base.get(layer))
              for layer in visible}
    assert slowed_layer in ratios, f"{slowed_layer} has under 2% of the operation"
    assert 1.15 <= ratios[slowed_layer] <= 1.5, ratios
    others = {layer: ratio for layer, ratio in ratios.items() if layer != slowed_layer}
    assert max(others.values()) < 1.12, others
