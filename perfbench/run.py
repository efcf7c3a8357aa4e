"""Layered benchmark of unclonelab: two closed-loop workloads.

One run of one workload, as the benchmark contract calls it:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs in a fresh interpreter (worker.py) with unclonelab taken
from ``src/`` of this checkout and BLAS held to one thread. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

--trace 0 measures the workload for S seconds and reports the end-to-end
metrics. The timed worker pauses its clock PAUSES times, evenly spread over
the S seconds; in each pause set-up (a worker that stops after set-up) is
timed once and start-up (a ``python -m unclonelab vectors`` subprocess,
checked against the golden vectors) twice. The medians are reported, with
the timed worker's own set-up among the set-up samples. Spread over the
whole run, the samples meet the same mix of CPU speeds as the timed
operations, on a VM whose CPU speed changes every few seconds.

--trace 1 runs the workload's fixed number of steps twice, untraced and then
traced, and reports the per-layer metrics of the traced run plus the tracing
overhead (untraced over traced operations per second). Spans are written to
``.perfbench/`` in the checkout.

Every workload at once, with a table of metrics and units; exits non-zero if
any correctness check fails:

    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Without ``src/unclonelab`` in the checkout, or when a worker fails, it exits
non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import GOLDEN_SEED, GOLDEN_VECTORS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
DEFAULT_SEED = 1
PAUSES = 9
WORKER_TIMEOUT_S = 170
# every workload is single-threaded, BLAS included, so a run needs one CPU
# and its figures do not depend on how busy the other CPUs are
BLAS_THREADS = 1

# metric names and units, and the run length, are the ones BENCHMARK.json lists
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _run(cmd: list[str]) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              capture_output=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out after {WORKER_TIMEOUT_S}s: {cmd}") from None


def worker_cmd(workload: str, seed: int) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed)]


def run_worker(workload: str, seed: int, steps: int,
               trace: Path | None = None) -> dict:
    cmd = worker_cmd(workload, seed) + ["--steps", str(steps)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    proc = _run(cmd)
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_timed(workload: str, seed: int, seconds: float, sample) -> dict:
    """The timed worker, calling sample() in each of its PAUSES pauses.

    The worker prints ``pause`` and waits for a line on its standard input.
    """
    cmd = worker_cmd(workload, seed) + ["--seconds", str(seconds),
                                        "--pauses", str(PAUSES)]
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            last, pauses = "", 0
            for line in proc.stdout:
                if line == "pause\n":
                    sample()
                    pauses += 1
                    proc.stdin.write("go\n")
                    proc.stdin.flush()
                else:
                    last = line
            stderr = proc.stderr.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} failed or ran past "
                         f"{WORKER_TIMEOUT_S}s:\n{stderr[-3000:]}")
    # a step longer than a slice can leave a pause out; make up for it
    for _ in range(PAUSES - pauses):
        sample()
    return json.loads(last)


def metrics(values: dict, units: dict[str, str]) -> dict:
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"no value for {missing}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def time_startup(golden: dict) -> tuple[float, bool]:
    """Wall time of one `python -m unclonelab vectors`, and whether it is right."""
    cmd = [sys.executable, "-m", "unclonelab", "vectors", "--seed", str(GOLDEN_SEED)]
    t0 = time.perf_counter()
    proc = _run(cmd)
    elapsed = time.perf_counter() - t0
    return elapsed, proc.returncode == 0 and json.loads(proc.stdout)["results"] == golden


def run_untraced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    golden = json.loads(GOLDEN_VECTORS.read_text())
    setups, startups, misses = [], [], 0

    def sample() -> None:
        nonlocal misses
        setups.append(run_worker(workload, seed, steps=0)["setup_s"])
        for _ in range(2):
            elapsed, ok = time_startup(golden)
            startups.append(elapsed)
            misses += not ok

    raw = run_timed(workload, seed, seconds, sample)
    setups.append(raw["setup_s"])
    raw["setup_s"] = statistics.median(setups)
    raw["startup_s"] = statistics.median(startups)
    result = {
        "correct": raw["failed"] == 0 and misses == 0,
        "attempted": raw["ops"] + len(startups),
        "failed": raw["failed"] + misses,
        "metrics": metrics(raw, E2E_UNITS),
    }
    return result, raw


def run_traced(workload: str, seed: int) -> tuple[dict, dict]:
    steps = WORKLOADS[workload].trace_steps
    plain = run_worker(workload, seed, steps)
    traced = run_worker(workload, seed, steps,
                        trace=OUT_DIR / f"spans-{workload}-{seed}.tsv")
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = plain["ops_per_s"] / traced["ops_per_s"]
    result = {
        "correct": plain["failed"] == 0 and traced["failed"] == 0,
        "attempted": plain["ops"] + traced["ops"],
        "failed": plain["failed"] + traced["failed"],
        "metrics": metrics(layers, LAYER_UNITS),
    }
    return result, traced


def run_one(workload: str, seed: int, seconds: float, trace: bool):
    if trace:
        return run_traced(workload, seed)
    return run_untraced(workload, seed, seconds)


def print_table(workload: str, result: dict, raw: dict) -> None:
    print(f"== {workload}: {result['attempted']} ops attempted, "
          f"{result['failed']} failed "
          f"(failed_ops_ratio {result['failed'] / result['attempted']:.6g})")
    for name, m in result["metrics"].items():
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")
    if "op_tail_ms" in result["metrics"]:
        print(f"  op_tail_ms is p{raw['op_tail_percentile']} with "
              f"{raw['op_tail_samples_beyond']} of {raw['ops']} samples beyond it")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true",
                       help="run every workload and print a table")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "unclonelab" / "__init__.py").is_file():
        print(f"perfbench: no src/unclonelab in {ROOT}: nothing to benchmark",
              file=sys.stderr)
        return 1
    try:
        correct = True
        for workload in WORKLOADS if args.all else [args.workload]:
            result, raw = run_one(workload, args.seed, args.seconds,
                                  bool(args.trace))
            print_table(workload, result, raw)
            correct = correct and result["correct"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if not args.all:
        print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
