"""Run one workload in this process and print its raw figures as JSON.

Started by run.py in a fresh interpreter per workload, so module-global
caches start empty and peak RSS belongs to this workload alone.

    python3 perfbench/worker.py --workload NAME --seed N
        (--seconds S [--pauses P] | --steps K) [--trace PATH]

Set-up is the import of the unclonelab modules the workload drives plus its
fixtures, timed together. With --seconds the timed phase then runs steps
until S seconds have passed and there are enough operations for the
workload's tail percentile; with --pauses it stops its clock P times,
evenly spread over the S seconds, each time printing ``pause`` and waiting
for a line on standard input, so that the caller can time other processes
on an idle CPU. With --steps it runs exactly K steps, so call
counts repeat at a seed; --steps 0 stops after set-up. --trace wraps the
package's public functions and writes the spans to PATH.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import stats
from workloads import WORKLOADS


def run(name: str, seed: int, seconds: float | None, steps: int | None,
        trace_path: Path | None, pauses: int = 0) -> dict:
    workload = WORKLOADS[name]()
    t0 = time.perf_counter()
    workload.load()
    import_s = time.perf_counter() - t0

    tracer = None
    if trace_path is not None:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    t1 = time.perf_counter()
    workload.setup(seed)
    out = {"workload": name, "seed": seed, "import_s": import_s,
           "setup_s": import_s + time.perf_counter() - t1}
    if steps == 0:
        return out

    op_count = 0

    def mark():
        nonlocal op_count
        if tracer is not None:
            tracer.op_id = op_count
        op_count += 1

    min_ops = stats.min_samples(workload.tail_percentile)
    results: list[tuple[float, bool]] = []
    done = paused = 0
    next_pause = 1
    start = time.perf_counter()
    while (done < steps) if steps is not None else (
            time.perf_counter() - paused < start + seconds
            or len(results) < min_ops):
        results += workload.step(mark)
        done += 1
        now = time.perf_counter()
        if (next_pause <= pauses and now - paused
                >= start + seconds * next_pause / (pauses + 1)):
            print("pause", flush=True)
            sys.stdin.readline()
            paused += time.perf_counter() - now
            next_pause += 1
    elapsed = time.perf_counter() - start - paused
    if tracer is not None:
        tracer.op_id = None
        tracer.uninstall()
    failed = sum(not ok for _, ok in results) + workload.finish()

    latencies_ms = [lat * 1e3 for lat, _ in results]
    # a fixed-steps run may be too short for a tail; its caller needs none
    tail_ms, tail_beyond = (stats.tail(latencies_ms, workload.tail_percentile)
                            if len(latencies_ms) >= min_ops else (None, 0))
    out.update({
        "steps": done,
        "ops": len(results),
        "failed": failed,
        "elapsed_s": elapsed,
        "ops_per_s": len(results) / elapsed,
        "op_p50_ms": statistics.median(latencies_ms),
        "op_tail_ms": tail_ms,
        "op_tail_percentile": workload.tail_percentile,
        "op_tail_samples_beyond": tail_beyond,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(len(results))
        tracer.write(trace_path)
    return out


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    limit = parser.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float)
    limit.add_argument("--steps", type=int)
    parser.add_argument("--pauses", type=int, default=0)
    parser.add_argument("--trace", type=Path, default=None)
    args = parser.parse_args()
    out = run(args.workload, args.seed, args.seconds, args.steps, args.trace,
              args.pauses)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
