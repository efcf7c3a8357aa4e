"""Command-line and report-layer tests.

The CLI contract under test: exit code 0 when a run completes and its
thresholds hold, 2 when a run completes but a threshold fails, 1 on
any usage error; reports carry {schema, artifact_version, experiment,
config, seed, results, wall_time_s}; rerunning with the same flags and
seed reproduces the rendered report byte for byte once the wall-time
entry is stripped. Most tests call main() in process; one subprocess
test checks the ``python -m`` entry point.
"""

import gc
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import peak_traced_bytes, strip_wall_time_regex
from unclonelab import cli, report
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
            assert "--payload-qubits must be at most 6" in err
            assert peak < 4 << 20, q

    def test_oversize_note_exits_1_without_drawing(self, capsys):
        # an n = 20000 note would need 12.5 MB of randomness
        argv = ["mini", "demo", "--n", "20000", "--seed", "1"]
        (code, out, err), peak = peak_traced_bytes(_capture, capsys, argv)
        assert (code, out) == (1, "")
        assert "--n must be at most 12" in err
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
        (["prs", "overlap", "--domain-bits", "40"],
         "--domain-bits must be at most 20"),
        (["prs", "overlap", "--k", str(1 << 40), "--domain-bits", "40"],
         "--k must be at most 3"),
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
        assert err.startswith(f"{argv[0]} {argv[1]}: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        # the PPRF key encodings hold at most 0xFFFF tag bits
        (["detsig", "sign", "--tag-bits", "524288"],
         "--tag-bits must be at most 65528"),
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
        # run() names the flag of a single-flag cap, a handler its own rules
        assert err.startswith(("unclonelab: ", f"{argv[0]} {argv[1]}: "))
        assert message in err
        assert "Traceback" not in err
        assert peak < 4 << 20

    @pytest.mark.parametrize("leaf", ["demo", "sign", "verify", "vectors"])
    def test_too_wide_tag_names_the_flag(self, capsys, leaf):
        code, out, err = _capture(capsys, ["detsig", leaf, "--tag-bits",
                                           "65536", "--seed", "1"])
        assert (code, out) == (1, "")
        assert "--tag-bits must be at most 65528" in err

    @pytest.mark.parametrize("argv, message", [
        (["coin", "demo", "--coins", "65"], "--coins must be at most 4"),
        # the width is checked before the signature length it sets
        (["detsig", "vectors", "--digest-bits", "4097"],
         "--digest-bits must be at most 256"),
        (["purify", "typedist", "--n", "1024", "--t", "2"],
         "--n must be at most 64"),
        (["purify", "typedist", "--n", "64", "--t", "1000000"],
         "--t must be at most 1024"),
        # refused before any key is built
        (["sde", "demo", "--keys", "257"], "--keys must be at most 256"),
        (["purify", "typedist", "--n", "1", "--t", "3"],
         "--t 3 exceeds the 2 distinct basis labels of --n 1"),
        (["purify", "typedist", "--n", "0"],
         "--t 2 exceeds the 1 distinct basis labels of --n 0"),
        (["purify", "typedist", "--t", "65"],
         "--t 65 exceeds the 16 distinct basis labels of --n 4"),
        # numpy draws from [0, 2^63) and refuses a wider range
        (["prs", "srd", "--domain", str(1 << 64)],
         f"--domain must be at most {1 << 63}"),
        (["prs", "srd", "--k", str(1 << 31)], f"--k must be at most {1 << 20}"),
        (["prs", "srd", "--domain", "1"], "--k 2 exceeds --domain 1"),
        # refused before minting
        (["coin", "demo", "--coins", "0", "--attack", "zero-pad"],
         "--attack zero-pad needs at least one issued coin, but --coins is 0"),
        (["coin", "demo", "--coins", "0", "--attack", "measure-clone"],
         "--attack measure-clone needs at least one issued coin"),
        (["detsig", "demo", "--message", "100"],
         "--message 100 exceeds the 8 message bits of --n 8"),
        (["detsig", "sign", "--message", "100"],
         "--message 100 exceeds the 8 message bits of --n 8"),
        (["purify", "compiler", "--n", "0"], "--t 2 with --n 0"),
        # --n is checked before the signature length it sets
        (["detsig", "vectors", "--n", str(1 << 31)], "--n must be at most 56"),
    ])
    def test_out_of_range_value_names_its_flag(self, capsys, argv, message):
        start = time.perf_counter()
        code, out, err = _capture(capsys, argv + ["--seed", "1"])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        # run() names the flag of a single-flag cap, a handler its own rules
        assert err.startswith(("unclonelab: ", f"{argv[0]} {argv[1]}: "))
        assert message in err
        assert "Traceback" not in err

    def test_most_keys_still_report(self, capsys):
        out = _json_report(capsys, ["sde", "demo", "--keys", "256",
                                    "--message-bits", "1", "--seed", "1"])
        assert len(out["results"]["tags"]) == 256

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

    @pytest.mark.parametrize("verdict", ["reject", "changed"])
    def test_mini_demo_needs_the_chain_to_return_the_note(self, monkeypatch,
                                                          capsys, verdict):
        from unclonelab import minischeme
        from unclonelab.hilbert.states import basis_state

        def mini_verify(sn, note, rng):
            if verdict == "reject":
                return 0, note
            return 1, basis_state(note.num_qubits, 0)

        monkeypatch.setattr(minischeme, "mini_verify", mini_verify)
        code, out, _ = _capture(capsys, ["mini", "demo", "--seed", "1"])
        assert code == 2
        assert json.loads(out)["results"]["honest_accept"] == pytest.approx(1.0)

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


# the work flags: any positive value is valid and costs time linear in it,
# so the sweep holds them at 1 and tries them only at values below 2^31
_WORK_FLAGS = {"trials": "1", "samples": "1"}
_BIG_VALUES = (str(1 << 31), str(1 << 64))
_SWEPT = [(name, flag) for name, spec in EXPERIMENTS.items()
          for flag in spec.flags if flag.choices is None]
# traced bytes any one run may peak at; the sweep's largest run, a valid
# coin demo, peaks at about 5 MB
_SWEEP_PEAK_BYTES = 16 << 20
# flags a run needs before its other flags' values decide the outcome
_SWEEP_BASE = {"game run": ["--name", "identical-challenge"],
               "detsig verify": ["--message", "0", "--signature", "00"]}
_TAKES_TRIALS = sorted(name for name, spec in EXPERIMENTS.items()
                       if spec.trials is not None)
# bytes a run may hold per trial: prs overlap keeps one float64 overlap per
# trial, and std() makes one temporary as long, so its 2^20 trials cap
# bounds them at 16 MiB
_BYTES_PER_TRIAL = {"prs overlap": 16}


def _edge_values(flag):
    """least - 1 and least where the flag has a least value, just above
    the greatest where it has one, then big, non-finite and non-numeric
    values; work flags skip the big ones."""
    values = ()
    if flag.low is not None:
        values = (repr(flag.type(flag.low - 1)), repr(flag.low))
    if flag.high is not None:
        above = (flag.high + 1 if flag.type is int
                 else math.nextafter(flag.high, math.inf))
        values += (repr(above),)
    if flag.name not in _WORK_FLAGS:
        values += _BIG_VALUES
    return values + ("nan", "inf", "x")


class TestEdgeValueSweep:
    """Every non-choice flag at its edge values, one flag at a time."""

    @pytest.mark.parametrize(
        "name, flag", _SWEPT,
        ids=[f"{name} --{flag.name}" for name, flag in _SWEPT])
    def test_edge_values_exit_cleanly_in_bounded_memory(self, monkeypatch,
                                                         capsys, name, flag):
        # one parser for every run, so the trace holds the run alone
        parser = build_parser()
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        base = name.split() + ["--seed", "1"] + _SWEEP_BASE.get(name, [])
        for work in EXPERIMENTS[name].flags:
            if work.name in _WORK_FLAGS:
                base += [f"--{work.name}", _WORK_FLAGS[work.name]]
        dash = "--" + flag.name.replace("_", "-")
        bad = []
        for value in _edge_values(flag):
            try:
                code, peak = peak_traced_bytes(main, base + [dash, value])
            except Exception as exc:  # any escape is a fault
                bad.append(f"{dash} {value}: raised {exc!r}")
                continue
            finally:
                err = capsys.readouterr().err
            if code not in (0, 1, 2) or peak >= _SWEEP_PEAK_BYTES:
                bad.append(f"{dash} {value}: exit {code}, peak {peak} bytes")
            elif code == 1 and dash not in err:
                bad.append(f"{dash} {value}: {err.strip()!r} names no {dash}")
        assert not bad, f"{name}: " + "; ".join(bad)


class TestMemoryPerTrial:
    """The work flags cost time, not memory: the sweep holds them at 1."""

    @pytest.mark.parametrize("name", _TAKES_TRIALS)
    def test_peak_is_flat_in_trials(self, monkeypatch, capsys, name):
        """A run's traced peak at 8 and at 64 trials agrees within 8 KB
        beyond the bytes per trial it declares. game run's --samples is
        covered by test_sde_ue.py's test_challenge_memory_flat_in_samples."""
        parser = build_parser()
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        argv = name.split() + _SWEEP_BASE.get(name, []) + ["--seed", "1",
                                                         "--trials"]
        small, big = 8, 64
        gc.disable()  # a full collection empties the free lists filled below
        try:
            main(argv + [str(big)])  # first-call allocations
            peaks = []
            for trials in (small, big):
                capsys.readouterr()  # each report into an empty buffer
                # CPython keeps up to 2,000 freed tuples of each length for
                # reuse, and tracemalloc counts those a traced run leaves there
                junk = [tuple(range(n)) for n in range(1, 20)
                        for _ in range(2000)]
                del junk
                peaks.append(peak_traced_bytes(main, argv + [str(trials)])[1])
        finally:
            gc.enable()
        held = _BYTES_PER_TRIAL.get(name, 0) * (big - small)
        assert peaks[1] - peaks[0] <= (8 << 10) + held, peaks


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


_json_values = st.recursive(
    st.one_of(st.booleans(), st.integers(), st.floats(allow_nan=False),
              st.text(), st.none()),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.tuples(inner, inner),
                            st.dictionaries(st.text(max_size=3), inner,
                                            max_size=3)),
    max_leaves=8)


def _renderings(results):
    return [report.render(results, fmt) for fmt in ("json", "csv")]


class TestReportModule:
    @settings(max_examples=200)
    @given(value=_json_values)
    def test_plain_copies_json_values(self, value):
        # tuples become lists; nothing else changes
        want = json.loads(json.dumps(value))
        assert report.plain(value) == want
        assert _renderings({"v": report.plain(value)}) == \
            _renderings({"v": want})

    def test_plain_conversions(self):
        out = report.plain({"t": (1, 2), 3: [None, True],
                            "nested": {"s": "x", "f": 0.5, "e": ()}})
        assert out == {"t": [1, 2], "3": [None, True],
                       "nested": {"s": "x", "f": 0.5, "e": []}}
        assert isinstance(out["3"][1], bool)

    @pytest.mark.parametrize("value", [
        np.int64(3), np.float64(0.5), np.bool_(True), np.arange(3),
        b"\x01\xff", 1 + 2j, object(), {"deep": [(1, np.int64(2))]}])
    def test_plain_refuses_non_json_values(self, value):
        # numpy's float64 is a float subclass, and CSV writes it by repr
        with pytest.raises(TypeError, match="report values are JSON types"):
            report.plain(value)

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

    @settings(max_examples=500)
    @given(st.lists(st.sampled_from((
        '"wall_time_s": ', "wall_time_s,", ",", "\n", " ", "\t", "\u2003",
        "\x1c", "1", "2.5e-3", "-", "x", '"', "}")), max_size=24).map("".join))
    # no comma; a whitespace run holding several newlines; a CSV row at the
    # start; one at the end without a newline; a comma that the JSON pass
    # removes to put a CSV row at a line start
    @example('{\n  "v": 1\n  "wall_time_s": 0.5\n}\n')
    @example('{"v": 1, \n\t\n \u2003\n\x1c "wall_time_s": 2e-05}')
    @example("wall_time_s,0.5\nkey,value\n")
    @example("key,value\nwall_time_s,0.5")
    @example('\n,\n"wall_time_s": 1wall_time_s,3\nx')
    def test_strip_wall_time_matches_regex_reference(self, text):
        assert report.strip_wall_time(text) == strip_wall_time_regex(text)

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
