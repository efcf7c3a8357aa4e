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

plain() converts whatever has a ``tolist`` method (numpy scalars and
arrays, ``array.array``, ``memoryview``) through that method, so this
module imports no numpy and building the CLI parser loads none.
"""

from __future__ import annotations

import csv
import io
import json
import re

from . import __version__

SCHEMA_VERSION = 1

# wall time is the one nondeterministic field; these patterns excise it
# from either rendering without disturbing the rest of the bytes
_WALL_JSON = re.compile(r',?\n\s*"wall_time_s": [0-9eE+.-]+')
_WALL_CSV = re.compile(r"^wall_time_s,[^\n]*\n?", re.MULTILINE)


def plain(value):
    """Coerce numpy scalars, arrays, bytes, and tuples to JSON-safe types."""
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if hasattr(value, "tolist"):
        return plain(value.tolist())
    if isinstance(value, (bytes, bytearray)):
        return value.hex()
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return repr(value)


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


def strip_wall_time(text: str) -> str:
    """Drop the wall-time entry so rendered reports can be compared."""
    return _WALL_CSV.sub("", _WALL_JSON.sub("", text))
