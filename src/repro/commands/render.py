"""Terminal rendering for tool reports.

Reports are nested structures — dicts of per-kernel rows, lists of dataclass
findings, timelines of samples — but the historical ``pasta profile`` text
output flattened every value through ``str()``, so anything non-scalar
printed as an opaque repr on one line.  :func:`print_text_report` renders the
same reports with real structure: mappings indent their items, lists of rows
become ``-`` items, and dataclasses/enums are normalised first via
:func:`~repro.core.serialization.json_sanitize` so every row prints as
readable ``key: value`` lines.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Mapping

from repro.core.serialization import json_sanitize

#: Indentation unit for nested report values.
_INDENT = "  "

#: Scalar lists up to this rendered width stay on one line.
_INLINE_WIDTH = 72


def _is_scalar(value: Any) -> bool:
    return value is None or isinstance(value, (bool, int, float, str))


def _fmt_scalar(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _render(value: Any, indent: int, lines: list[str], key: str = "") -> None:
    pad = _INDENT * indent
    prefix = f"{pad}{key}: " if key else pad
    if _is_scalar(value):
        lines.append(f"{prefix}{_fmt_scalar(value)}".rstrip())
        return
    if isinstance(value, Mapping):
        if not value:
            lines.append(f"{prefix}{{}}".rstrip())
            return
        lines.append(f"{pad}{key}:" if key else pad.rstrip())
        for sub_key, sub_value in value.items():
            _render(sub_value, indent + 1, lines, key=str(sub_key))
        return
    if isinstance(value, (list, tuple)):
        if not value:
            lines.append(f"{prefix}[]".rstrip())
            return
        if all(_is_scalar(item) for item in value):
            inline = "[" + ", ".join(_fmt_scalar(item) for item in value) + "]"
            if len(inline) <= _INLINE_WIDTH:
                lines.append(f"{prefix}{inline}".rstrip())
                return
        lines.append(f"{pad}{key}:" if key else pad.rstrip())
        item_pad = _INDENT * (indent + 1)
        for item in value:
            if _is_scalar(item):
                lines.append(f"{item_pad}- {_fmt_scalar(item)}")
            elif isinstance(item, Mapping) and item:
                item_lines: list[str] = []
                for sub_key, sub_value in item.items():
                    _render(sub_value, indent + 2, item_lines, key=str(sub_key))
                # Fold the first field onto the "- " bullet.
                first = item_lines[0].lstrip()
                lines.append(f"{item_pad}- {first}")
                lines.extend(item_lines[1:])
            else:
                sub_lines: list[str] = []
                _render(item, indent + 2, sub_lines)
                first = sub_lines[0].lstrip() if sub_lines else ""
                lines.append(f"{item_pad}- {first}")
                lines.extend(sub_lines[1:])
        return
    # json_sanitize has already normalised dataclasses/enums; anything left
    # is a stray object — render its string form rather than crash.
    lines.append(f"{prefix}{value}".rstrip())


def render_report(report: Mapping[str, Any]) -> str:
    """Render one tool's report as indented ``key: value`` lines."""
    lines: list[str] = []
    for key, value in json_sanitize(report).items():
        if key == "tool":
            continue
        _render(value, 1, lines, key=str(key))
    return "\n".join(lines)


def print_text_report(reports: Mapping[str, Mapping[str, Any]]) -> None:
    """Print every tool's report with nested structure preserved."""
    for tool_name, report in reports.items():
        print(f"\n[{tool_name}]")
        print(render_report(report))


def print_reports(reports: Mapping[str, Mapping[str, Any]], as_json: bool) -> None:
    """Emit reports as indented JSON or as structured text."""
    if as_json:
        print(json.dumps(json_sanitize(reports), indent=2, sort_keys=True))
    else:
        print_text_report(reports)


def print_names(names: Iterable[str]) -> None:
    """Print registry names one per line (``--list-...`` helpers)."""
    for name in names:
        print(name)
