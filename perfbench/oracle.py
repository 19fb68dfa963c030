"""Correctness oracle: every operation's reports must match a pinned digest.

``pins.json`` holds two tables of report digests, keyed by :func:`pin_key`:

* ``live``: the reports of a live, local run of the spec, started from the
  program's fresh-import id state.  Live operations, the daemon's results
  (remote must equal local) and replay-mode campaign cells (replay must
  equal live) are compared with it.
* ``campaign_replay``: the reports each cell of the benchmark's campaign
  grid gets when the grid runs from fresh-import id state.  This is the
  strict pin of the ``campaign_replay`` workload.

Why two tables: kernel launch ids seed the simulator's access sample, and
device indices key ``memory_timeline``'s report, and both come from
process-wide counters.  So a cell whose trace is not the first recording of
a grid reports something else than a fresh live run of the same spec.  The
benchmark counts those cells as contract violations of the program (printed
with every run), not as failed operations, and pins them strictly all the
same, so any further change to their output still fails the run.

Regenerate the pins only when a change is meant to alter reports::

    python3 perfbench/run.py --write-pins
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path
from typing import Mapping, Optional

PINS_PATH = Path(__file__).with_name("pins.json")

#: Grid-id windows ending at or beyond this id cover every kernel the
#: benchmark's models launch, so they change a spec's digest (its cache key)
#: but not its reports; the serve workload uses them to make cold specs.
COVERING_WINDOW_END = 1_000_000


def covering_window(unique: int) -> dict[str, int]:
    """Knobs that make a spec's digest unique without changing its reports."""
    return {"start_grid_id": 0, "end_grid_id": COVERING_WINDOW_END + unique}


def pin_key(spec) -> str:
    """Identity of the reports a spec produces (covering windows ignored)."""
    knobs = dict(spec.knobs)
    if knobs.get("start_grid_id") == 0 and knobs.get("end_grid_id", 0) >= COVERING_WINDOW_END:
        del knobs["start_grid_id"], knobs["end_grid_id"]
    parts = [spec.model, spec.device, spec.mode, f"it{spec.iterations}",
             f"bs{spec.batch_size}", "+".join(sorted(spec.tools)) or "-"]
    if spec.fine_grained:
        parts.append("fine")
    if spec.parallelism is not None:
        parts.append(f"{spec.parallelism.strategy}{spec.parallelism.world_size}")
    if knobs:
        parts.append(json.dumps(knobs, sort_keys=True))
    return "/".join(parts)


def reports_digest(reports: Mapping[str, object]) -> str:
    from repro.core.serialization import content_digest

    return content_digest(reports)


class FreshIds:
    """The program's process-wide id counters as they were when captured.

    Capture right after import; :meth:`restore` before a serially run
    simulation makes its outputs independent of what ran earlier in the
    process, as if it ran in a fresh one.  Every counter the program keeps
    counts up by one, so a counter is saved as its next value.
    """

    def __init__(self) -> None:
        #: id of a counter -> (its next value, the (module, name) pairs bound to it)
        counters: dict[int, tuple[int, list]] = {}
        for module_name, module in sorted(sys.modules.items()):
            if module_name.split(".")[0] != "repro" or module is None:
                continue
            for name, value in vars(module).items():
                if isinstance(value, itertools.count):
                    if id(value) not in counters:
                        counters[id(value)] = (next(value), [])
                    counters[id(value)][1].append((module, name))
        self._saved = list(counters.values())
        self.restore()

    def restore(self) -> None:
        for start, bindings in self._saved:
            counter = itertools.count(start)
            for module, name in bindings:
                setattr(module, name, counter)


class Oracle:
    """Checks reports against the pins; a missing pin is a failure too."""

    def __init__(self, pins: Mapping[str, Mapping[str, str]]) -> None:
        self.pins = {table: dict(entries) for table, entries in pins.items()}

    @classmethod
    def load(cls, path: Path = PINS_PATH) -> "Oracle":
        return cls(json.loads(path.read_text(encoding="utf-8")))

    def check(self, spec, reports: Mapping[str, object], table: str = "live") -> Optional[str]:
        """None when ``reports`` match the pin of ``spec``, else why not."""
        key = pin_key(spec)
        expected = self.pins.get(table, {}).get(key)
        if expected is None:
            return f"no pinned {table} reports digest for {key}"
        actual = reports_digest(reports)
        if actual != expected:
            return (f"{table} reports of {key} changed: digest {actual[:12]} "
                    f"!= pinned {expected[:12]}")
        return None
