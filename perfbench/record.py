"""Record the benchmark baseline in perfbench/baseline.json.

    python3 perfbench/record.py

For each workload this runs, one at a time, the exact command the benchmark
contract names, with BENCHMARK.json's run_seconds:

- two sets of untraced runs, each at SEEDS (the first is the default seed),
  summarised per end-to-end metric as median, quartiles from
  ``statistics.quantiles(values, n=4)`` and spread (q3 - q1) / median, with
  the raw values; then, per metric, how far the second set's median moved
  from the first and whether that stays within the metric's bound;
- one untraced run at HELDOUT_SEED, which tuning never used;
- traced runs at the default seed (twice, to show the counts repeat) and
  at the held-out seed. Counts are the hardware-independent per-operation
  costs: calls_per_op, ratios and ots checks per verify.

The bounds in BENCHMARK.json are meant for medians of at least ten runs per
side, as compared here. A single run of unchanged code can fall outside
them: on a shared VM whose CPU speed changes over seconds to minutes,
single runs of op_tail_ms, startup_s and ops_per_s have read 25-36% away
from their ten-run medians.

It prints a table as it goes and writes everything, with the machine, to
baseline.json beside this file.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import stats
from run import BLAS_THREADS, DEFAULT_SEED, SPEC
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "baseline.json"
SEEDS = list(range(DEFAULT_SEED, DEFAULT_SEED + 10))
HELDOUT_SEED = 1017
SETS = 2


def bench(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n"
                         f"{proc.stderr}{proc.stdout}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def values(result: dict) -> dict[str, float]:
    return {name: m["value"] for name, m in result["metrics"].items()}


def is_count(name: str) -> bool:
    """Per-layer metrics that count work rather than time it."""
    return not name.endswith("_ms_per_op") and name != "trace.overhead_ratio"


def counts(result: dict) -> dict[str, float]:
    return {name: v for name, v in values(result).items() if is_count(name)}


def summarize(runs: list[dict]) -> dict[str, dict]:
    out = {}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"],
                     "median": statistics.median(vals), "q1": q1, "q3": q3,
                     "spread": stats.spread(vals), "values": vals}
    return out


def agreement(first: dict, second: dict) -> dict[str, dict]:
    """How much worse the second set's median is than the first's."""
    out = {}
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        a, b = first[name]["median"], second[name]["median"]
        worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
        out[name] = {"worse_by": worse, "bound": metric["bound"],
                     "within_bound": worse <= metric["bound"]}
    return out


def machine() -> dict:
    import numpy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
    except OSError:
        commit = ""
    model = ""
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    nproc = len(os.sched_getaffinity(0))
    return {"nproc": nproc, "cpu": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": BLAS_THREADS,
            "commit": commit or "unknown"}


def main() -> None:
    report = {"machine": machine(), "run_seconds": SPEC["run_seconds"],
              "default_seed": DEFAULT_SEED, "heldout_seed": HELDOUT_SEED,
              "seeds": SEEDS, "workloads": {}}
    for workload in WORKLOADS:
        sets = [[bench(workload, s, 0) for s in SEEDS] for _ in range(SETS)]
        heldout = bench(workload, HELDOUT_SEED, 0)
        traced = [bench(workload, s, 1)
                  for s in (DEFAULT_SEED, DEFAULT_SEED, HELDOUT_SEED)]
        summaries = [summarize(runs) for runs in sets]
        runs = [r for runs in sets for r in runs] + [heldout] + traced
        entry = {
            "correct": all(r["correct"] for r in runs),
            "spread_over_seeds": summaries,
            "second_set_vs_first": agreement(*summaries),
            "end_to_end": {str(DEFAULT_SEED): values(sets[0][0]),
                           str(HELDOUT_SEED): values(heldout)},
            "counts": {str(DEFAULT_SEED): counts(traced[0]),
                       str(HELDOUT_SEED): counts(traced[2])},
            "counts_repeat_at_default_seed": counts(traced[0]) == counts(traced[1]),
            "per_layer_ms": {str(s): {k: v for k, v in values(t).items()
                                      if not is_count(k)}
                             for s, t in ((DEFAULT_SEED, traced[0]),
                                          (HELDOUT_SEED, traced[2]))},
        }
        report["workloads"][workload] = entry
        print(f"== {workload}: correct {entry['correct']}, counts repeat "
              f"{entry['counts_repeat_at_default_seed']}, tracing overhead "
              f"{values(traced[0])['trace.overhead_ratio']:.3f}x")
        for name, agree in entry["second_set_vs_first"].items():
            first, second = (s[name] for s in summaries)
            print(f"  {name:<12} median {first['median']:>10.6g} "
                  f"{first['unit']:<4} spreads {first['spread']:.3f} "
                  f"{second['spread']:.3f}  second set worse by "
                  f"{agree['worse_by']:+.3f}  held-out "
                  f"{entry['end_to_end'][str(HELDOUT_SEED)][name]:.6g}")
        sys.stdout.flush()
        OUT.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
