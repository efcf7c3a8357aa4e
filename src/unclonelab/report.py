"""Experiment report assembly and serialization.

Schema version 1. A report is a flat mapping with six fields:

  schema            schema version, currently 1
  artifact_version  package version string
  experiment        subcommand path, e.g. "coin demo"
  config            echo of every parameter that influenced the run
  seed              the experiment seed
  results           experiment-specific payload
  wall_time_s       elapsed wall-clock seconds

Two renderings exist: JSON (sorted keys, two-space indent) and CSV
(key,value rows over dotted flattened keys). Both are byte-stable:
rerunning with the same config and seed reproduces the output exactly
except for the wall_time_s entry, which strip_wall_time removes for
comparisons.

plain() takes only JSON values: dicts (keys become strings), lists,
tuples (written as lists) and exact bool, int, float, str or None. Any
other value, a numpy scalar included, raises TypeError naming its type,
so no value reaches a report through a conversion or a repr.
"""

from __future__ import annotations

import csv
import io
import json
import re

from . import __version__

SCHEMA_VERSION = 1

# wall time is the one nondeterministic field; both searches start at its
# literal name, and strip_wall_time widens a match to the whole entry
_WALL_JSON = re.compile(r'"wall_time_s": [0-9eE+.-]+')
_WALL_CSV = re.compile(r"wall_time_s,[^\n]*\n?")


def plain(value):
    """Copy a report value as JSON types; raise TypeError on any other."""
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if type(value) in (bool, int, float, str) or value is None:
        return value
    raise TypeError(f"report values are JSON types, not {type(value).__name__}")


def build_report(experiment: str, config: dict, results: dict,
                 seed: int | None, wall_time_s: float) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "artifact_version": __version__,
        "experiment": experiment,
        "config": plain(config),
        "seed": seed,
        "results": plain(results),
        "wall_time_s": float(wall_time_s),
    }


def _flatten(prefix: str, value, rows: list) -> None:
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
    else:
        if isinstance(value, list):
            value = json.dumps(value)
        rows.append((prefix, value))


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def render_csv(report: dict) -> str:
    rows: list = []
    _flatten("", report, rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    for key, value in rows:
        writer.writerow([key, "" if value is None else value])
    return buf.getvalue()


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return render_json(report)
    if fmt == "csv":
        return render_csv(report)
    raise ValueError(f"unknown report format {fmt!r}")


def _csv_row(m: re.Match) -> str:
    at = m.start()
    return "" if m.string[at - 1:at] in ("", "\n") else m.group()


def strip_wall_time(text: str) -> str:
    """Drop the wall-time entry so rendered reports can be compared.

    A JSON entry goes from the first newline of the whitespace before it,
    or from a comma just before that newline; a CSV row goes only where
    it starts a line. The CSV pass reads the JSON pass's output."""
    parts, keep = [], 0
    for m in _WALL_JSON.finditer(text):
        start = m.start()
        while start > keep and text[start - 1].isspace():
            start -= 1
        cut = text.find("\n", start, m.start())
        if cut < 0:
            continue
        if text[cut - 1:cut] == ",":
            cut -= 1
        parts.append(text[keep:cut])
        keep = m.end()
    parts.append(text[keep:])
    return _WALL_CSV.sub(_csv_row, "".join(parts))
