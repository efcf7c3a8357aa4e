"""Re-record tests/report_digests.json, the committed report digests.

The file holds one entry per planned run: experiment, params, trials,
seed and format, and what the run gave: its exit code, the SHA-256 of
its report with wall time stripped, and a short digest per report line
(so a failing check can name the first line that changed). The plan:

* the cli-suite benchmark plan at seeds 1-3;
* every canonical run of acceptance criterion 10 (seed 77);
* one run for each value of each choice flag, at the flag table's
  defaults otherwise;
* `prs overlap` at k = 1 and k = 3, the query counts the runs above
  leave out, at the flag table's defaults otherwise;

each in JSON and CSV. A change that alters report bytes on purpose
re-records, from the repository root:

    PYTHONPATH=src python tests/record_report_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
DIGESTS = TESTS / "report_digests.json"
FORMATS = ("json", "csv")
SUITE_SEEDS = (1, 2, 3)
CHOICE_SEED = 1
# work flags held small in the choice runs
CHOICE_WORK = {"trials": 2, "samples": 2}


def run_report(experiment: str, params: dict, trials, seed: int,
               fmt: str) -> tuple[int, str]:
    """(exit code, report with wall time stripped) of one in-process run."""
    from unclonelab import report
    from unclonelab.cli import ExperimentConfig, run

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(ExperimentConfig(experiment=experiment, params=dict(params),
                                    seed=seed, trials=trials, fmt=fmt))
    return code, report.strip_wall_time(buf.getvalue())


def line_digests(text: str) -> str:
    """An 8-hex-digit digest per line, space-separated."""
    return " ".join(hashlib.sha256(line.encode()).hexdigest()[:8]
                    for line in text.splitlines())


def _suite_runs():
    from perfbench.workloads import CliSuite

    suite = CliSuite()
    suite.load()
    for seed in SUITE_SEEDS:
        for name, params, trials, exp_seed in suite.plan(seed):
            yield name, params, trials, exp_seed


def _canonical_runs():
    from test_acceptance import _CANONICAL
    from unclonelab import detsig
    from unclonelab.rng import make_rng

    # criterion 10 builds its verify params the same way
    _, sk = detsig.setup(6, 16, make_rng(77), digest_bits=16)
    verify = {"n": 6, "tag_bits": 16, "digest_bits": 16, "message": "2a",
              "signature": detsig.sign(sk, 0x2A).to_bytes().hex()}
    for name, (params, trials) in sorted(_CANONICAL.items()):
        yield name, verify if params is None else params, trials, 77


def _choice_runs():
    from unclonelab.cli import EXPERIMENTS

    for name, spec in EXPERIMENTS.items():
        defaults = {f.name: f.default for f in spec.flags}
        defaults.update((k, v) for k, v in CHOICE_WORK.items() if k in defaults)
        if name == "game run":
            defaults["name"] = "identical-challenge"
        for flag in spec.flags:
            for value in flag.choices or ():
                params = dict(defaults, **{flag.name: value})
                trials = params.pop("trials", None)
                yield name, params, trials, CHOICE_SEED


def _overlap_runs():
    from unclonelab.cli import EXPERIMENTS

    defaults = {f.name: f.default for f in EXPERIMENTS["prs overlap"].flags}
    trials = defaults.pop("trials")
    for k in (1, 3):
        yield "prs overlap", dict(defaults, k=k), trials, CHOICE_SEED


def plan() -> list[tuple[str, dict, int | None, int, str]]:
    """Every (experiment, params, trials, seed, format), first use kept."""
    runs, seen = [], set()
    for source in (_suite_runs, _canonical_runs, _choice_runs, _overlap_runs):
        for name, params, trials, seed in source():
            for fmt in FORMATS:
                key = json.dumps([name, params, trials, seed, fmt],
                                 sort_keys=True)
                if key not in seen:
                    seen.add(key)
                    runs.append((name, params, trials, seed, fmt))
    return runs


def record() -> list[dict]:
    entries = []
    for name, params, trials, seed, fmt in plan():
        code, text = run_report(name, params, trials, seed, fmt)
        entries.append({
            "experiment": name, "params": params, "trials": trials,
            "seed": seed, "format": fmt, "exit": code,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "lines": line_digests(text),
        })
    return entries


def main() -> None:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    entries = record()
    DIGESTS.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"{len(entries)} reports recorded in {DIGESTS.name}")


if __name__ == "__main__":
    main()
