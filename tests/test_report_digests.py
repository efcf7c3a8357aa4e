"""Report bytes against the committed digests in report_digests.json.

Each entry re-runs in process and must give the recorded exit code and
the recorded SHA-256 of its report with wall time stripped. A change
that alters report bytes on purpose re-records the file with
record_report_digests.py, which also describes the plan.
"""

import hashlib
import json

from record_report_digests import DIGESTS, line_digests, run_report


def _first_changed_line(text: str, recorded: str) -> str:
    lines, want = text.splitlines(), recorded.split()
    for i, (line, digest) in enumerate(zip(lines, line_digests(text).split())):
        if i >= len(want) or digest != want[i]:
            return f"line {i + 1}: {line}"
    return f"line {len(lines) + 1}: <report ends; {len(want)} lines recorded>"


def test_reports_match_recorded_digests():
    entries = json.loads(DIGESTS.read_text())
    mismatches = []
    for e in entries:
        code, text = run_report(e["experiment"], e["params"], e["trials"],
                                e["seed"], e["format"])
        digest = hashlib.sha256(text.encode()).hexdigest()
        if (code, digest) != (e["exit"], e["sha256"]):
            mismatches.append(
                f"{e['experiment']} {e['format']} seed {e['seed']} "
                f"params {e['params']} trials {e['trials']}: exit {code} "
                f"(recorded {e['exit']}), first changed "
                f"{_first_changed_line(text, e['lines'])}")
    assert not mismatches, (f"{len(mismatches)} of {len(entries)} reports "
                            "differ:\n" + "\n".join(mismatches))
