"""Command-line and report-layer tests.

The CLI contract under test: exit code 0 when a run completes and its
thresholds hold, 2 when a run completes but a threshold fails, 1 on
any usage error; reports carry {schema, artifact_version, experiment,
config, seed, results, wall_time_s}; rerunning with the same flags and
seed reproduces the rendered report byte for byte once the wall-time
entry is stripped. Most tests call main() in process; one subprocess
test checks the ``python -m`` entry point.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from unclonelab import report
from unclonelab.cli import (
    EXPERIMENTS,
    ExperimentConfig,
    UsageError,
    _config_from_args,
    build_parser,
    main,
    run,
)


def _capture(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _json_report(capsys, argv):
    code, out, err = _capture(capsys, argv)
    assert code == 0, err
    return json.loads(out)


class TestExitCodes:
    def test_success(self, capsys):
        code, out, err = _capture(
            capsys, ["purify", "typedist", "--n", "4", "--t", "2",
                     "--seed", "7"])
        assert code == 0

    def test_unknown_module(self, capsys):
        code, _, err = _capture(capsys, ["bogus"])
        assert code == 1
        assert err

    def test_missing_action(self, capsys):
        assert _capture(capsys, ["coin"])[0] == 1
        assert _capture(capsys, [])[0] == 1

    def test_missing_seed(self, capsys):
        code, _, err = _capture(capsys, ["coin", "demo", "--trials", "5"])
        assert code == 1
        assert "--seed" in err

    def test_bad_flag_value(self, capsys):
        code, _, err = _capture(
            capsys, ["coin", "demo", "--trials", "abc", "--seed", "1"])
        assert code == 1

    def test_domain_validation_error(self, capsys):
        code, _, err = _capture(
            capsys, ["game", "run", "--name", "strong-search", "--q", "9",
                     "--seed", "1"])
        assert code == 1
        assert "q must be" in err

    def test_threshold_failure_is_exit_2(self, capsys):
        sign = _json_report(capsys, ["detsig", "sign", "--n", "4",
                                     "--seed", "5", "--message", "a"])
        sig = sign["results"]["signature"]
        tampered = ("01" if sig[:2] == "00" else "00") + sig[2:]
        code, out, _ = _capture(
            capsys, ["detsig", "verify", "--n", "4", "--seed", "5",
                     "--message", "a", "--signature", tampered])
        assert code == 2
        assert json.loads(out)["results"]["verified"] is False

    def test_verify_round_trip_is_exit_0(self, capsys):
        sign = _json_report(capsys, ["detsig", "sign", "--n", "4",
                                     "--seed", "5", "--message", "a"])
        code, out, _ = _capture(
            capsys, ["detsig", "verify", "--n", "4", "--seed", "5",
                     "--message", "a",
                     "--signature", sign["results"]["signature"]])
        assert code == 0
        assert json.loads(out)["results"]["verified"] is True


class TestReportShape:
    def test_field_set(self, capsys):
        rep = _json_report(capsys, ["prs", "demo", "--n", "3", "--seed", "2"])
        assert set(rep) == {"schema", "artifact_version", "experiment",
                            "config", "seed", "results", "wall_time_s"}
        assert rep["schema"] == 1
        assert rep["experiment"] == "prs demo"
        assert rep["seed"] == 2
        assert rep["config"] == {"n": 3}

    def test_typedist_example_fields(self, capsys):
        rep = _json_report(capsys, ["purify", "typedist", "--n", "4",
                                    "--t", "2", "--seed", "7"])
        assert "td_estimate" in rep["results"]
        assert "bound" in rep["results"]
        assert rep["results"]["td_estimate"] <= rep["results"]["bound"]

    def test_coin_example_rate_in_range(self, capsys):
        rep = _json_report(capsys, ["coin", "demo", "--variant", "eqsup",
                                    "--id-bits", "4", "--mini-n", "8",
                                    "--attack", "zero-pad",
                                    "--trials", "200", "--seed", "3"])
        assert 0.0 <= rep["results"]["success_rate"] <= 1.0

    def test_stochastic_reports_carry_stderr(self, capsys):
        stochastic = [
            ["coin", "demo", "--trials", "20", "--seed", "1"],
            ["prs", "overlap", "--trials", "20", "--seed", "1"],
            ["prs", "srd", "--trials", "50", "--seed", "1"],
            ["game", "run", "--name", "identical-challenge", "--trials", "3",
             "--seed", "1"],
        ]
        for argv in stochastic:
            rep = _json_report(capsys, argv)
            assert "stderr" in rep["results"], argv
            assert rep["results"]["stderr"] >= 0.0

    def test_config_echo_includes_trials(self, capsys):
        rep = _json_report(capsys, ["coin", "demo", "--trials", "25",
                                    "--seed", "4"])
        assert rep["config"]["trials"] == 25

    def test_game_run_emits_transcript(self, capsys):
        rep = _json_report(capsys, ["game", "run", "--name", "multi-copy-ue",
                                    "--q", "2", "--gamma", "0.1",
                                    "--trials", "1", "--seed", "20"])
        transcript = rep["results"]["transcript"]
        assert transcript[0].startswith("step 1:")
        assert transcript[-1].startswith("game bit:")


class TestReproducibility:
    ARGS = ["game", "run", "--name", "multi-challenge-ue", "--q", "2",
            "--gamma", "0.1", "--trials", "4", "--seed", "42"]

    def test_byte_identical_json(self, capsys):
        _, a, _ = _capture(capsys, self.ARGS)
        _, b, _ = _capture(capsys, self.ARGS)
        assert report.strip_wall_time(a) == report.strip_wall_time(b)
        assert "wall_time_s" in a
        assert "wall_time_s" not in report.strip_wall_time(a)

    def test_byte_identical_csv(self, capsys):
        argv = self.ARGS + ["--format", "csv"]
        _, a, _ = _capture(capsys, argv)
        _, b, _ = _capture(capsys, argv)
        assert report.strip_wall_time(a) == report.strip_wall_time(b)

    def test_different_seed_differs(self, capsys):
        _, a, _ = _capture(capsys, self.ARGS)
        _, b, _ = _capture(capsys, self.ARGS[:-1] + ["43"])
        assert report.strip_wall_time(a) != report.strip_wall_time(b)

    def test_detsig_vectors_golden(self, capsys):
        argv = ["detsig", "vectors", "--n", "8", "--seed", "1"]
        _, a, _ = _capture(capsys, argv)
        _, b, _ = _capture(capsys, argv)
        assert report.strip_wall_time(a) == report.strip_wall_time(b)
        vectors = json.loads(a)["results"]["vectors"]
        assert len(vectors) == 8
        assert all(set(v) == {"message", "signature"} for v in vectors)

    def test_cross_module_vectors_golden(self, capsys):
        _, a, _ = _capture(capsys, ["vectors", "--seed", "16"])
        _, b, _ = _capture(capsys, ["vectors", "--seed", "16"])
        assert report.strip_wall_time(a) == report.strip_wall_time(b)
        results = json.loads(a)["results"]
        assert set(results) == {"pprf", "detsig", "prs", "mini", "sde"}

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "rep.json"
        code = main(["mini", "demo", "--n", "6", "--seed", "9",
                     "--out", str(path)])
        assert code == 0
        assert capsys.readouterr().out == ""
        _, streamed, _ = _capture(capsys, ["mini", "demo", "--n", "6",
                                           "--seed", "9"])
        assert report.strip_wall_time(path.read_text()) == \
            report.strip_wall_time(streamed)


class TestConfigFile:
    def _write(self, tmp_path, text):
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        return str(path)

    def test_defaults_applied(self, capsys, tmp_path):
        cfg = self._write(tmp_path, "# demo defaults\ntrials=30\nseed=3\n")
        rep = _json_report(capsys, ["coin", "demo", "--config", cfg])
        assert rep["config"]["trials"] == 30
        assert rep["seed"] == 3

    def test_flags_beat_config(self, capsys, tmp_path):
        cfg = self._write(tmp_path, "trials=30\nseed=3\nmini-n=6\n")
        rep = _json_report(capsys, ["coin", "demo", "--config", cfg,
                                    "--trials", "10"])
        assert rep["config"]["trials"] == 10
        assert rep["config"]["mini_n"] == 6

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = self._write(tmp_path, "nonsense=1\n")
        code, _, err = _capture(capsys, ["coin", "demo", "--config", cfg,
                                         "--seed", "1"])
        assert code == 1
        assert "nonsense" in err

    def test_malformed_line_rejected(self, capsys, tmp_path):
        cfg = self._write(tmp_path, "just a line without equals\n")
        code, _, err = _capture(capsys, ["coin", "demo", "--config", cfg,
                                         "--seed", "1"])
        assert code == 1
        assert "key=value" in err

    def test_bad_choice_rejected(self, capsys, tmp_path):
        cfg = self._write(tmp_path, "variant=bogus\n")
        code, _, err = _capture(capsys, ["coin", "demo", "--config", cfg,
                                         "--seed", "1"])
        assert code == 1

    def test_bad_type_rejected(self, capsys, tmp_path):
        cfg = self._write(tmp_path, "trials=abc\n")
        code, _, err = _capture(capsys, ["coin", "demo", "--config", cfg,
                                         "--seed", "1"])
        assert code == 1

    def test_missing_file_rejected(self, capsys):
        code, _, err = _capture(capsys, ["coin", "demo", "--seed", "1",
                                         "--config", "/nonexistent.cfg"])
        assert code == 1


class TestRunApi:
    def test_programmatic_run(self, tmp_path, capsys):
        cfg = ExperimentConfig(experiment="mini demo", params={"n": 6},
                               seed=9, out=str(tmp_path / "r.json"))
        assert run(cfg) == 0
        rep = json.loads((tmp_path / "r.json").read_text())
        assert rep["results"]["honest_accept"] == pytest.approx(1.0, abs=1e-9)

    def test_unknown_experiment(self):
        with pytest.raises(UsageError, match="unknown experiment"):
            run(ExperimentConfig(experiment="nope", params={}, seed=1))

    def test_unknown_parameter_names_rejected(self):
        with pytest.raises(UsageError, match="parameters"):
            run(ExperimentConfig(experiment="mini demo",
                                 params={"n": 6, "extra": 1}, seed=1))
        with pytest.raises(UsageError, match="parameters"):
            run(ExperimentConfig(experiment="mini demo", params={}, seed=1))

    def test_seed_mandatory(self):
        with pytest.raises(UsageError, match="seed"):
            run(ExperimentConfig(experiment="mini demo", params={"n": 6},
                                 seed=None))

    def test_trials_rejected_where_not_taken(self, capsys):
        with pytest.raises(UsageError, match="takes no trials"):
            run(ExperimentConfig(experiment="mini demo", params={"n": 6},
                                 seed=1, trials=5))
        assert capsys.readouterr().out == ""

    def test_trials_required_where_taken(self):
        for name, params in (
                ("coin demo", {"variant": "eqsup", "id_bits": 4,
                               "mini_n": 8, "attack": "zero-pad",
                               "coins": 1}),
                ("prs overlap", {"k": 2, "ell": 32, "domain_bits": 6}),
                ("prs srd", {"k": 2, "ell": 32, "domain": 4096}),
                ("game run", {"name": "identical-challenge", "q": 2,
                              "gamma": 0.1, "adversary": "honest-forwarder",
                              "samples": 4})):
            with pytest.raises(UsageError, match="needs trials"):
                run(ExperimentConfig(experiment=name, params=params, seed=1))


class TestParserMatchesRegistry:
    def test_every_leaf_yields_the_registered_parameters(self):
        parser, _ = build_parser()
        takes_trials = set()
        for name, spec in EXPERIMENTS.items():
            argv = name.split() + ["--seed", "1"]
            if name == "game run":
                argv += ["--name", "identical-challenge"]
            cfg = _config_from_args(parser.parse_args(argv))
            assert cfg.experiment == name
            assert set(cfg.params) == set(spec.params), name
            assert (cfg.trials is not None) == (spec.trials is not None), name
            if cfg.trials is not None:
                takes_trials.add(name)
        assert takes_trials == {"coin demo", "prs overlap", "prs srd",
                                "game run"}


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "unclonelab", "mini", "demo", "--n", "6",
             "--seed", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["experiment"] == "mini demo"


class TestReportModule:
    def test_plain_conversions(self):
        raw = {
            "i": np.int64(3),
            "f": np.float64(0.5),
            "b": np.bool_(True),
            "arr": np.arange(3),
            "bytes": b"\x01\xff",
            "c": 1 + 2j,
            "nested": {"t": (1, 2)},
        }
        out = report.plain(raw)
        assert out == {"i": 3, "f": 0.5, "b": True, "arr": [0, 1, 2],
                       "bytes": "01ff", "c": [1.0, 2.0],
                       "nested": {"t": [1, 2]}}
        assert isinstance(out["i"], int)
        assert isinstance(out["b"], bool)

    def test_json_sorted_and_terminated(self):
        rep = report.build_report("x", {"b": 1, "a": 2}, {"z": 0}, 1, 0.5)
        text = report.render_json(rep)
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text)["config"] == {"a": 2, "b": 1}

    def test_strip_wall_time_json(self):
        rep = report.build_report("x", {}, {"v": 1}, 1, 0.123)
        text = report.render_json(rep)
        stripped = report.strip_wall_time(text)
        assert "wall_time_s" not in stripped
        assert '"v": 1' in stripped
        # stable under wall-time changes
        other = report.render_json(
            report.build_report("x", {}, {"v": 1}, 1, 9.876))
        assert report.strip_wall_time(other) == stripped

    def test_strip_wall_time_csv(self):
        rep = report.build_report("x", {}, {"v": 1}, 1, 0.123)
        text = report.render_csv(rep)
        stripped = report.strip_wall_time(text)
        assert "wall_time_s" not in stripped
        other = report.render_csv(
            report.build_report("x", {}, {"v": 1}, 1, 9.876))
        assert report.strip_wall_time(other) == stripped

    def test_csv_layout(self):
        rep = report.build_report("x", {"n": 2}, {"xs": [1, 2]}, 7, 0.1)
        lines = report.render_csv(rep).splitlines()
        assert lines[0] == "key,value"
        assert "config.n,2" in lines
        assert any(line.startswith("results.xs,") for line in lines)

    def test_unknown_format(self):
        rep = report.build_report("x", {}, {}, 1, 0.1)
        with pytest.raises(ValueError):
            report.render(rep, "xml")
