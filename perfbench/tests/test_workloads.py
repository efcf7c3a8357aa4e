"""Smoke runs: each workload passes on the real package, and its
correctness oracle fires when the package is made to misbehave."""

import pytest

from workloads import CliSuite, TamperSweep


def failures(workload, steps, seed=7):
    workload.setup(seed)
    results = []
    for _ in range(steps):
        results += workload.step(lambda: None)
    return sum(not ok for _, ok in results) + workload.finish(), len(results)


def loaded(cls, **overrides):
    workload = cls()
    workload.load()
    for name, value in overrides.items():
        setattr(workload, name, value)
    return workload


def test_tamper_sweep(monkeypatch):
    workload = loaded(TamperSweep, batch=4)
    assert failures(workload, 300) == (0, 300)
    monkeypatch.setattr(workload.detsig, "verify", lambda vk, m, sig: True)
    failed, ops = failures(workload, 300)
    assert 0.7 * ops < failed < ops


@pytest.fixture(scope="module")
def cli_suite():
    return loaded(CliSuite)


def test_cli_suite(cli_suite):
    failed, ops = failures(cli_suite, 2)
    assert failed == 0 and ops == 2 * len(cli_suite.configs)


def test_cli_suite_golden_vectors(cli_suite, monkeypatch):
    cli_suite.setup(7)
    monkeypatch.setattr(cli_suite, "golden", {"pprf": {}})
    results = cli_suite.step(lambda: None)
    assert [ok for _, ok in results].count(False) == 1


def test_cli_suite_exit_codes(cli_suite, monkeypatch):
    cli_suite.setup(7)
    monkeypatch.setattr(cli_suite.cli, "run", lambda cfg: 2)
    assert not any(ok for _, ok in cli_suite.step(lambda: None))


def test_cli_suite_coin_accept(cli_suite, monkeypatch):
    from unclonelab import coin
    cli_suite.setup(7)
    monkeypatch.setattr(coin, "coin_verify", lambda vk, cand: (0, None, 0.0))
    results = cli_suite.step(lambda: None)
    assert [ok for _, ok in results].count(False) == 1
