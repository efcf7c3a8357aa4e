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
import math
import subprocess
import sys

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import peak_traced_bytes
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

    def test_oversize_payload_exits_1_without_sampling(self, capsys):
        for q in ("7", "22"):
            argv = ["purify", "compiler", "--payload-qubits", q, "--seed", "1"]
            (code, out, err), peak = peak_traced_bytes(_capture, capsys, argv)
            assert (code, out) == (1, ""), q
            assert "payload limited" in err
            assert peak < 4 << 20, q

    def test_oversize_note_exits_1_without_drawing(self, capsys):
        # an n = 20000 note would need 12.5 MB of randomness
        argv = ["mini", "demo", "--n", "20000", "--seed", "1"]
        (code, out, err), peak = peak_traced_bytes(_capture, capsys, argv)
        assert (code, out) == (1, "")
        assert "n must be even" in err
        assert peak < 1 << 20

    def test_zero_trials_is_a_usage_error(self, capsys):
        for argv in (["prs", "srd"], ["prs", "overlap"], ["coin", "demo"]):
            code, out, err = _capture(capsys, argv + ["--trials", "0",
                                                      "--seed", "1"])
            assert (code, out) == (1, ""), argv
            assert "trials must be positive" in err

    @pytest.mark.parametrize("argv, message", [
        (["sde", "demo", "--keys", "0"], "keys must be positive"),
        (["sde", "demo", "--keys", "-2"], "keys must be positive"),
        (["detsig", "vectors", "--count", "0"], "count must be positive"),
        (["detsig", "vectors", "--count", "-3"], "count must be positive"),
        (["purify", "compiler", "--tol", "nan"], "tol must be finite"),
        (["purify", "compiler", "--tol", "inf"], "tol must be finite"),
        (["purify", "compiler", "--tol", "-0.5"], "tol must be finite"),
    ])
    def test_out_of_range_value_is_a_usage_error(self, capsys, argv, message):
        code, out, err = _capture(capsys, argv + ["--seed", "1"])
        assert (code, out) == (1, "")
        assert message in err

    @pytest.mark.parametrize("argv, message", [
        (["prs", "overlap", "--domain-bits", "40"], "domain_bits must be at most"),
        (["prs", "overlap", "--k", str(1 << 40), "--domain-bits", "40"],
         "k <= 3"),
        (["prs", "overlap", "--ell", str(1 << 40)], "ell must be at most"),
        (["prs", "overlap", "--trials", str(1 << 40)], "trials must be at most"),
        (["prs", "srd", "--ell", str(1 << 40)], "ell must be at most"),
        (["prs", "srd", "--k", str(1 << 40), "--domain", str((1 << 40) + 1)],
         "k must be at most"),
    ])
    def test_oversize_prs_arrays_are_a_usage_error(self, capsys, argv,
                                                   message):
        code, out, err = _capture(capsys, argv + ["--seed", "1"])
        assert (code, out) == (1, "")
        assert err.startswith("unclonelab: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        # the PPRF key encodings hold at most 0xFFFF tag bits
        (["detsig", "sign", "--tag-bits", "524288"], "output_bits must be in"),
        # 2^40 signatures are refused before a key is made
        (["detsig", "vectors", "--count", "1099511627776", "--n", "4"],
         "--count 1099511627776"),
        (["detsig", "vectors", "--count", "200"], "vectors budget"),
    ])
    def test_oversize_signature_output_is_a_usage_error(self, capsys, argv,
                                                        message):
        argv = argv + ["--seed", "1"]
        (code, out, err), peak = peak_traced_bytes(_capture, capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("unclonelab: ") and message in err
        assert "Traceback" not in err
        assert peak < 4 << 20

    @pytest.mark.parametrize("leaf", ["demo", "sign", "verify", "vectors"])
    def test_too_wide_tag_names_the_flag(self, capsys, leaf):
        code, out, err = _capture(capsys, ["detsig", leaf, "--tag-bits",
                                           "65536", "--seed", "1"])
        assert (code, out) == (1, "")
        assert "--tag-bits must be at most 65528" in err

    def test_widest_tag_still_reports(self, capsys):
        out = _json_report(capsys, ["detsig", "sign", "--n", "1",
                                    "--tag-bits", "65528", "--seed", "1"])
        # one 8,191-byte tag in the signature, written as hex
        assert out["results"]["signature_len"] > 65528 // 8
        assert len(out["results"]["signature"]) == 2 * out["results"]["signature_len"]

    def test_smallest_valid_values_run(self, capsys):
        for argv in (["sde", "demo", "--keys", "1"],
                     ["detsig", "vectors", "--count", "1", "--n", "2"],
                     ["purify", "compiler", "--tol", "0"]):
            code, out, err = _capture(capsys, argv + ["--seed", "1"])
            assert code in (0, 2), (argv, err)
            json.loads(out)

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

    @pytest.mark.parametrize("signature", ["zz", "abc"])
    def test_bad_signature_names_the_flag(self, capsys, signature):
        code, out, err = _capture(
            capsys, ["detsig", "verify", "--n", "4", "--seed", "5",
                     "--message", "a", "--signature", signature])
        assert (code, out) == (1, "")
        assert "--signature must be a hex string" in err

    def test_verify_round_trip_is_exit_0(self, capsys):
        sign = _json_report(capsys, ["detsig", "sign", "--n", "4",
                                     "--seed", "5", "--message", "a"])
        code, out, _ = _capture(
            capsys, ["detsig", "verify", "--n", "4", "--seed", "5",
                     "--message", "a",
                     "--signature", sign["results"]["signature"]])
        assert code == 0
        assert json.loads(out)["results"]["verified"] is True


# flags that let each other flag's least value yield a report on its own
# (coins=0 needs the null attack, n=0 a single copy, domain=1 one query)
_GATE_BASE = {
    "coin demo": ["--attack", "null", "--trials", "2"],
    "detsig verify": ["--message", "0", "--signature", "00"],
    "purify typedist": ["--t", "1"],
    "purify compiler": ["--t", "1"],
    "prs overlap": ["--trials", "2"],
    "prs srd": ["--k", "1", "--trials", "2"],
    "game run": ["--name", "identical-challenge"],
}
_NUMBER_FLAGS = [(name, flag) for name, spec in EXPERIMENTS.items()
                 for flag in spec.flags if flag.type in (int, float)]


class TestValueGate:
    """run() checks every value against its Param before the handler runs."""

    @pytest.mark.parametrize(
        "name, flag", _NUMBER_FLAGS,
        ids=[f"{name} --{flag.name}" for name, flag in _NUMBER_FLAGS])
    def test_least_value_runs_and_one_below_is_refused(self, capsys, name,
                                                       flag):
        assert flag.low is not None
        dash = "--" + flag.name.replace("_", "-")
        below = (flag.low - 1 if flag.type is int
                 else math.nextafter(flag.low, -math.inf))
        argv = name.split() + ["--seed", "1"] + _GATE_BASE.get(name, [])
        code, out, err = _capture(capsys, argv + [dash, repr(flag.low)])
        assert code in (0, 2), err
        json.loads(out)
        # a value token, also in exponent form (-5e-324 for --tol)
        code, out, err = _capture(capsys, argv + [dash, repr(below)])
        assert (code, out) == (1, "")
        assert f"{name}: {dash} must be" in err

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_negative_seed_is_refused(self, capsys, name):
        # also by purify typedist, whose handler draws no randomness
        argv = name.split() + _GATE_BASE.get(name, []) + ["--seed", "-1"]
        code, out, err = _capture(capsys, argv)
        assert (code, out) == (1, "")
        assert f"{name}: --seed must be non-negative, got -1" in err

    @pytest.mark.parametrize("argv, message", [
        (["purify", "compiler", "--tol", "-1e-9", "--seed", "1"],
         "--tol must be finite and non-negative"),
        (["purify", "compiler", "--tol", "-inf", "--seed", "1"],
         "--tol must be finite and non-negative"),
        (["game", "run", "--name", "strong-search", "--gamma", "-1e-3",
          "--seed", "1"], "--gamma must be finite and positive"),
    ])
    def test_negative_values_reach_the_range_check(self, capsys, argv,
                                                   message):
        code, out, err = _capture(capsys, argv)
        assert (code, out) == (1, "")
        assert message in err

    def test_copies_beyond_the_label_space_name_n_and_t(self, capsys):
        # n = 0 is in range, but has one label for the default t = 2 copies
        code, out, err = _capture(capsys, ["purify", "compiler", "--n", "0",
                                           "--seed", "1"])
        assert (code, out) == (1, "")
        assert "t <= min(3, 2^n)" in err

    @pytest.mark.parametrize("experiment, params, trials, message", [
        ("coin demo", {"variant": "eqsup", "id_bits": 4, "mini_n": 8,
                       "attack": "bogus", "coins": 1}, 2, "--attack must be"),
        ("coin demo", {"variant": "eqsup", "id_bits": "4", "mini_n": 8,
                       "attack": "null", "coins": 1}, 2, "--id-bits must be"),
        ("coin demo", {"variant": "eqsup", "id_bits": True, "mini_n": 8,
                       "attack": "null", "coins": 1}, 2, "--id-bits must be"),
        ("coin demo", {"variant": "eqsup", "id_bits": 4, "mini_n": 8,
                       "attack": "null", "coins": 1}, 0, "--trials must be"),
        ("purify compiler", {"n": 3, "t": 0, "payload_qubits": 1,
                             "tol": 1e-9}, None, "--t must be positive"),
        ("purify compiler", {"n": 3, "t": 2, "payload_qubits": 1,
                             "tol": float("nan")}, None, "--tol must be"),
        ("detsig sign", {"n": 4, "tag_bits": 16, "digest_bits": 16,
                         "message": 10}, None, "--message must be"),
        ("game run", {"name": None, "q": 2, "gamma": 0.1,
                      "adversary": "junk", "samples": 4}, 1, "--name must be"),
    ])
    def test_api_refuses_before_the_handler(self, monkeypatch, capsys,
                                            experiment, params, trials,
                                            message):
        def handler(cfg):
            raise AssertionError("the handler ran")

        spec = EXPERIMENTS[experiment]
        monkeypatch.setitem(EXPERIMENTS, experiment,
                            spec._replace(handler=handler))
        with pytest.raises(UsageError, match=message):
            run(ExperimentConfig(experiment=experiment, params=params,
                                 seed=1, trials=trials))
        assert capsys.readouterr().out == ""

    def test_api_takes_an_int_for_a_float(self, capsys):
        code = run(ExperimentConfig(
            experiment="purify compiler", seed=1,
            params={"n": 2, "t": 1, "payload_qubits": 0, "tol": 0}))
        assert code == 0
        assert json.loads(capsys.readouterr().out)["config"]["tol"] == 0

    def test_config_file_values_meet_the_same_check(self, capsys, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("seed=1\ntol=-1e-9\n")
        code, out, err = _capture(capsys, ["purify", "compiler",
                                           "--config", str(path)])
        assert (code, out) == (1, "")
        assert "--tol must be finite and non-negative" in err
        # the command line still wins over the file
        rep = _json_report(capsys, ["purify", "compiler", "--config",
                                    str(path), "--tol", "1e-9"])
        assert rep["config"]["tol"] == 1e-9


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

    @pytest.mark.parametrize("second", ("n=9", "n = 8", "  n=9  "))
    def test_repeated_key_rejected_with_both_lines(self, capsys, tmp_path,
                                                   second):
        cfg = self._write(tmp_path, f"n=8\n# comment\nseed=2\n{second}\n")
        code, out, err = _capture(capsys, ["purify", "typedist",
                                           "--config", cfg])
        assert code == 1
        assert out == ""
        assert f"{cfg}:4:" in err and "line 1" in err

    def test_spellings_of_one_flag_are_one_key(self, capsys, tmp_path):
        cfg = self._write(tmp_path, "mini-n=6\nmini_n=8\n")
        code, _, err = _capture(capsys, ["coin", "demo", "--config", cfg])
        assert code == 1
        assert f"{cfg}:2:" in err and "line 1" in err

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

    def test_undecodable_file_rejected(self, capsys, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_bytes(b"trials=\xff\n")
        code, _, err = _capture(capsys, ["coin", "demo", "--seed", "1",
                                         "--config", str(path)])
        assert code == 1
        assert f"cannot read config file: {path}:" in err


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
        parser = build_parser()
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


def _plain_by_numpy_type(value):
    """report.plain as it was written with one branch per numpy type, the
    reference the tolist conversion must reproduce."""
    if isinstance(value, dict):
        return {str(k): _plain_by_numpy_type(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain_by_numpy_type(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_plain_by_numpy_type(v) for v in value.tolist()]
    if isinstance(value, (bytes, bytearray)):
        return value.hex()
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return repr(value)


_NUMPY_DTYPES = (np.float64, np.float32, np.int64, np.bool_, np.complex128)
_numpy_scalars = st.sampled_from(_NUMPY_DTYPES).flatmap(
    lambda dtype: hnp.from_dtype(np.dtype(dtype)).map(dtype))
_numpy_arrays = st.sampled_from(_NUMPY_DTYPES).flatmap(
    lambda dtype: hnp.arrays(dtype, hnp.array_shapes(min_dims=1, max_dims=3,
                                                     max_side=3)))
_report_values = st.recursive(
    st.one_of(_numpy_scalars, _numpy_arrays, st.integers(), st.text(),
              st.binary(max_size=4), st.none()),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner,
                                            max_size=3)),
    max_leaves=8)


def _renderings(results):
    return [report.render(results, fmt) for fmt in ("json", "csv")]


class TestReportModule:
    @settings(max_examples=200)
    @given(value=_report_values, scalar=_numpy_scalars)
    def test_plain_matches_per_type_conversion(self, value, scalar):
        want = _renderings({"v": _plain_by_numpy_type(value)})
        assert _renderings({"v": report.plain(value)}) == want
        # a 0-d array converts as its scalar; the per-type branches could
        # not iterate its tolist() and raised TypeError
        assert _renderings({"v": report.plain(np.asarray(scalar))}) == \
            _renderings({"v": _plain_by_numpy_type(scalar)})

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
