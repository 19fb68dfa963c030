"""In-memory span tracer that wraps the program's layer entry points.

The traced run measures where host time goes without editing the program:
:class:`Tracer` replaces public functions and methods of each layer with
wrappers that record one span per call and restores the originals on
:meth:`Tracer.uninstall`.  A span is ``(id, parent, layer, start_ns, end_ns,
n, thread)``; ``n`` carries an exact work count taken from the call's result
(records generated, bytes written, a cache hit), so counters are measured at
the same boundary as time.

A layer's *self time* is the duration of its spans minus the part covered by
their child spans.  Summed over every layer of one operation's span tree, the
self times equal the duration of the tree's root span exactly, which
:func:`summarize` checks.
"""

from __future__ import annotations

import itertools
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable, Iterator, Optional

#: Span tuple field positions.
SID, PARENT, LAYER, START, END, N, TID = range(7)

#: Layer of the root span the benchmark opens around one operation.
ROOT = "op"

#: Maps a wrapped call's ``(result, args)`` to its exact work count.
Counter = Callable[[object, tuple], int]


class Tracer:
    """Records spans from wrapped callables; install and uninstall in pairs."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """Record a span around a block of the benchmark's own code."""
        stack = self._stack()
        parent = stack[-1] if stack else 0
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            stack.pop()
            self.spans.append((sid, parent, layer, start, end, 0, threading.get_ident()))

    def traced(self, layer: str, fn: Callable, count: Optional[Counter] = None) -> Callable:
        """``fn`` wrapped so that every call records one ``layer`` span."""
        spans, ids, stack_of = self.spans, self._ids, self._stack

        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else 0
            sid = next(ids)
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
            n = count(result, args) if count is not None else 0
            spans.append((sid, parent, layer, start, end, n, threading.get_ident()))
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def traced_generator(self, layer: str, fn: Callable) -> Callable:
        """Generator function ``fn`` wrapped so that every resumption is a span.

        A span per ``next()`` attributes the producer's work correctly even
        when the consumer interleaves its own work between items; ``n`` is 1
        for a span that yielded an item and 0 for the final, exhausting one.
        """
        spans, ids, stack_of = self.spans, self._ids, self._stack

        def iterate(iterator):
            while True:
                stack = stack_of()
                parent = stack[-1] if stack else 0
                sid = next(ids)
                stack.append(sid)
                start = perf_counter_ns()
                produced = 0
                try:
                    item = next(iterator)
                    produced = 1
                except StopIteration:
                    return
                finally:
                    end = perf_counter_ns()
                    stack.pop()
                    spans.append((sid, parent, layer, start, end, produced,
                                  threading.get_ident()))
                yield item

        def wrapper(*args, **kwargs):
            return iterate(iter(fn(*args, **kwargs)))

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #
    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Set ``owner.attr`` until :meth:`uninstall` restores it."""
        own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr) if own else None, own))
        setattr(owner, attr, replacement)

    def wrap_method(self, cls: type, name: str, layer: str,
                    count: Optional[Counter] = None) -> None:
        """Trace ``cls.name`` (inherited methods are shadowed on ``cls``)."""
        self.patch(cls, name, self.traced(layer, getattr(cls, name), count))

    def wrap_generator_method(self, cls: type, name: str, layer: str) -> None:
        self.patch(cls, name, self.traced_generator(layer, getattr(cls, name)))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def drain(self) -> list[tuple]:
        """Take the spans recorded so far (recording continues afterwards)."""
        taken = self.spans[:]
        del self.spans[: len(taken)]
        return taken


@dataclass
class Tree:
    """One root span and everything recorded under it on the same thread."""

    root_layer: str
    duration_ns: int
    self_ns: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: Inclusive time of the outermost calls into each layer.
    total_ns: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    work: dict[str, int] = field(default_factory=lambda: defaultdict(int))


def summarize(spans: list[tuple]) -> list[Tree]:
    """Group spans into root trees and compute per-layer self time and counts.

    Spans are appended when they close, so on one thread a child always
    precedes its parent and a root follows every span under it: walking the
    list backwards meets each root before its own spans.  ``calls`` counts
    outermost calls into a layer (a span whose parent is another layer),
    ``work`` sums the spans' ``n``.
    """
    layer_of = {span[SID]: span[LAYER] for span in spans}
    current: dict[int, Tree] = {}
    trees: list[Tree] = []
    for span in reversed(spans):
        duration = span[END] - span[START]
        if span[PARENT] == 0:
            tree = Tree(span[LAYER], duration)
            current[span[TID]] = tree
            trees.append(tree)
        elif span[TID] in current:
            tree = current[span[TID]]
        else:
            raise ValueError(f"{span[LAYER]} span closed outside any root span")
        layer = span[LAYER]
        tree.self_ns[layer] += duration
        tree.work[layer] += span[N]
        parent_layer = layer_of.get(span[PARENT])
        if parent_layer is not None:
            tree.self_ns[parent_layer] -= duration
        if parent_layer != layer:
            tree.calls[layer] += 1
            tree.total_ns[layer] += duration
    trees.reverse()
    for tree in trees:
        covered = sum(tree.self_ns.values())
        if covered != tree.duration_ns:
            raise AssertionError(
                f"layer self times cover {covered} ns of a {tree.duration_ns} ns "
                f"{tree.root_layer} span"
            )
    return trees
