import json
import subprocess
import sys
from pathlib import Path

from tracing import Tracer, self_times

PERFBENCH = Path(__file__).resolve().parents[1]


def test_self_time_subtracts_nested_children():
    # root [0, 100] holds a [10, 40] and b [50, 90]; a holds c [20, 30]
    spans = [
        ("root", 0, 100, -1, 0),
        ("a", 10, 40, 0, 0),
        ("c", 20, 30, 1, 0),
        ("b", 50, 90, 0, 0),
    ]
    assert self_times(spans) == [30, 20, 10, 40]


def test_self_time_counts_overlapping_children_once():
    spans = [
        ("root", 0, 100, -1, None),
        ("a", 10, 60, 0, None),
        ("b", 40, 80, 0, None),
        ("c", 90, 120, 0, None),  # clipped at the parent's end
    ]
    assert self_times(spans)[0] == 100 - 70 - 10


def test_layer_metrics_per_operation():
    tracer = Tracer()
    tracer.spans = [
        ("detsig.verify", 0, 1_000_000, -1, 0),
        ("primitives.ots_verify", 0, 400_000, 0, 0),
        ("detsig.verify", 2_000_000, 2_500_000, -1, 1),
        ("detsig.verify", 0, 9_000_000, -1, None),  # set-up: left out
    ]
    tracer.outcomes["detsig.verify.reject_ratio"] = 1
    metrics = tracer.layer_metrics(ops=2)
    assert metrics["detsig.verify.calls_per_op"] == 1.0
    assert metrics["detsig.verify.self_ms_per_op"] == (0.6 + 0.5) / 2
    assert metrics["primitives.ots_verify.self_ms_per_op"] == 0.2
    assert metrics["detsig.ots_checks_per_verify"] == 0.5
    assert metrics["detsig.verify.reject_ratio"] == 0.5


def _traced_counts(tmp_path, name):
    cmd = [sys.executable, str(PERFBENCH / "worker.py"), "--workload",
           "cli-suite", "--seed", "3", "--steps", "1", "--trace",
           str(tmp_path / name)]
    env = {"PYTHONPATH": str(PERFBENCH.parent / "src"), "PATH": ""}
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          check=True, timeout=120)
    out = json.loads(proc.stdout.splitlines()[-1])
    assert (tmp_path / name).read_text().startswith("name\t")
    return {k: v for k, v in out["layers"].items() if "_ms_" not in k}


def test_traced_counts_repeat_at_a_seed(tmp_path):
    first = _traced_counts(tmp_path, "a.tsv")
    assert first == _traced_counts(tmp_path, "b.tsv")
    # one report per operation, one coin issued per pass of 15 reports
    assert first["cli.run.calls_per_op"] == 1.0
    assert first["report.render.calls_per_op"] == 1.0
    assert first["coin.gen_banknote.calls_per_op"] == 1 / 15
    assert first["hilbert.projective_implementation.calls_per_op"] > 0
    assert first["primitives.sha256.calls_per_op"] > 0
    assert first["primitives.sha256_bypass.calls_per_op"] > 0


def test_uninstall_restores_every_binding():
    from unclonelab import coin, detsig
    from unclonelab.hilbert import HybridState
    before = (detsig.verify, coin.pprf_eval, coin.hashlib,
              HybridState.__dict__["from_terms"])
    tracer = Tracer()
    tracer.install()
    assert detsig.verify is not before[0]
    tracer.uninstall()
    after = (detsig.verify, coin.pprf_eval, coin.hashlib,
             HybridState.__dict__["from_terms"])
    assert after == before
