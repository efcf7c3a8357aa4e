"""Acceptance suite: ten go/no-go checks, one test each.

Each test exercises one acceptance property at its stated parameters
and tolerance and prints a single PASS line with the measured values
once its assertions hold. Stated runtime limits are asserted too.
Scopes for the two checks whose literal enumeration is infeasible at
desk scale (puncture sets at 8 input bits, signature tamper sweeps)
follow the bounded-exhaustive structure used by the module tests.
"""

import itertools
import time

import numpy as np
import pytest

from helpers import random_binary_povm

from unclonelab import detsig, report
from unclonelab.cli import EXPERIMENTS, ExperimentConfig, run
from unclonelab.coin import CoinParams, coin_setup, coin_verify, counterfeit_game, gen_banknote
from unclonelab.hilbert.povm import projective_implementation, threshold_measure
from unclonelab.hilbert.states import haar_sample
from unclonelab.primitives.hashes import sha256
from unclonelab.primitives.pprf import (
    pprf_eval,
    pprf_gen,
    pprf_key_from_bytes,
    pprf_key_to_bytes,
    pprf_puncture,
)
from unclonelab.purify import (
    GenStateSpec,
    compiler_equivalence_check,
    small_range_experiment,
    type_vs_haar_distance,
)
from unclonelab.rng import make_rng
from unclonelab.sde_ue.compiler import (
    ReInput,
    SdeConfig,
    message_to_bytes,
    re_eval,
    re_input_to_bytes,
    sde_dec,
    sde_enc,
    sde_kg,
    sde_setup,
)
from unclonelab.sde_ue.onesde import one_enc, one_setup
from unclonelab.sde_ue.ue import ue_dec, ue_ekdk_transform, ue_enc, ue_kg


def test_criterion_01_type_state_bound():
    start = time.perf_counter()
    t = 2
    distances = []
    for n in (3, 4, 5, 6):
        out = type_vs_haar_distance(n, t)
        assert out["method"] == "exact"
        bound = 4 * t * t / (1 << n)
        assert out["td_estimate"] <= bound, (n, out["td_estimate"], bound)
        distances.append(out["td_estimate"])
    for prev, cur in zip(distances, distances[1:]):
        assert cur < prev
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 1 PASS: TD {['%.4f' % d for d in distances]} "
          f"under 16/2^n, strictly decreasing, {elapsed:.1f}s")


def test_criterion_02_compiler_equivalence():
    start = time.perf_counter()

    def haar_gen(q):
        def gen(z, rand):
            return haar_sample(q, make_rng(int.from_bytes(rand, "big")))
        return gen

    rng = make_rng(202)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        t = int(rng.integers(1, 4))
        while (1 << n) < t:
            n += 1
        q = int(rng.integers(1, 3))
        spec = GenStateSpec(b"", 16, q, haar_gen(q))
        out = compiler_equivalence_check(spec, n, t, rng)
        assert out["exact_gap"] <= 1e-9, (n, t, q, out["exact_gap"])
        worst = max(worst, out["exact_gap"])
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 2 PASS: 50 configs, worst exact_gap {worst:.2e} "
          f"<= 1e-9, {elapsed:.1f}s")


def test_criterion_03_small_range_overlap():
    start = time.perf_counter()
    out = small_range_experiment(2, 32, 6, 1000, make_rng(203))
    floor = 1 - 2 * 2 / 32
    assert floor == 0.875
    assert out["mean_overlap"] >= floor - 3 * out["stderr"]
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"criterion 3 PASS: mean overlap {out['mean_overlap']:.4f} >= "
          f"0.875 - 3*{out['stderr']:.5f}, {elapsed:.1f}s")


def test_criterion_04_pprf_punctured_correctness():
    violations = 0
    checked = 0

    def sweep(key, points, sets):
        nonlocal violations, checked
        full = {x: pprf_eval(key, x) for x in points}
        for s in sets:
            pk = pprf_puncture(key, list(s))
            for x in points:
                if x in s:
                    continue
                checked += 1
                if pprf_eval(pk, x) != full[x]:
                    violations += 1

    key4 = pprf_gen(4, 16, make_rng(204))
    all_sets = [
        s for size in (1, 2, 3)
        for s in itertools.combinations(range(16), size)
    ]
    sweep(key4, range(16), all_sets)

    key8 = pprf_gen(8, 8, make_rng(205))
    singletons = [(x,) for x in range(256)]
    structured = [(2 * i, 2 * i + 1) for i in range(128)]
    structured += [(0x42, 0x43, 0x44), (0x00, 0x01, 0x80),
                   (0x7F, 0x80, 0xFF), (0x00, 0xFF)]
    rng = make_rng(206)
    for _ in range(40):
        structured.append(tuple(
            int(v) for v in rng.choice(256, size=3, replace=False)))
    sweep(key8, range(256), singletons + structured)

    assert violations == 0
    print(f"criterion 4 PASS: {checked} punctured evaluations, "
          f"0 violations")


def test_criterion_05_detsig():
    start = time.perf_counter()
    n, tag_bits, digest_bits = 16, 16, 24
    rng = make_rng(207)
    vk, sk = detsig.setup(n, tag_bits, rng, digest_bits=digest_bits)

    failures = sum(
        not detsig.verify(vk, m, detsig.sign(sk, m))
        for m in (int(v) for v in make_rng(208).integers(0, 1 << n, size=100))
    )
    assert failures == 0

    vk2, sk2 = detsig.setup(n, tag_bits, make_rng(207),
                            digest_bits=digest_bits)
    m = 0xBEEF
    sig = detsig.sign(sk, m)
    assert detsig.sign(sk2, m).to_bytes() == sig.to_bytes()
    assert vk2.vk_root == vk.vk_root

    rejected_message_flips = sum(
        not detsig.verify(vk, m ^ (1 << bit), sig) for bit in range(n))
    assert rejected_message_flips == n

    blob = bytearray(sig.to_bytes())
    verify = detsig.verify
    for pos in range(len(blob)):
        byte = blob[pos]
        for bit in range(8):
            blob[pos] = byte ^ (1 << bit)
            if verify(vk, m, bytes(blob)):
                pytest.fail(f"tampered signature accepted at {pos}.{bit}")
        blob[pos] = byte
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 5 PASS: 100/100 round trips, byte-exact "
          f"determinism, {n} message flips and {len(blob) * 8} signature "
          f"flips all rejected, {elapsed:.1f}s")


def test_criterion_06_coin_correctness():
    rng = make_rng(209)
    setups = 0
    for variant in ("eqsup", "prs"):
        for _ in range(25):
            vk, sk = coin_setup(variant, CoinParams(), rng)
            first = gen_banknote(sk)
            second = gen_banknote(sk)
            assert first.inner(second) == 1.0
            bit, post, p = coin_verify(vk, first)
            assert (bit, p) == (1, 1.0)
            assert post.allclose(first)
            setups += 1
    assert setups == 50
    print("criterion 6 PASS: 50 setups across both variants, honest "
          "verify probability exactly 1.0, pairwise inner product 1")


def test_criterion_07_counterfeit_envelopes():
    trials = 10_000
    envelope = 2.0 ** -4
    sigma = (envelope * (1 - envelope) / trials) ** 0.5

    zero_pad = counterfeit_game("eqsup", 1, "zero-pad", make_rng(210),
                                trials=trials)
    assert abs(zero_pad["success_rate"] - envelope) <= 3 * sigma

    clone = counterfeit_game("eqsup", 1, "measure-clone", make_rng(211),
                             trials=trials)
    assert clone["success_rate"] <= envelope + 3 * sigma

    print(f"criterion 7 PASS: zero-pad rate {zero_pad['success_rate']:.4f} "
          f"within {envelope} +/- {3 * sigma:.4f}; measure-clone rate "
          f"{clone['success_rate']:.4f} below the envelope")


def test_criterion_08_measurement_theory():
    rng = make_rng(212)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 17))
        povm = random_binary_povm(dim, rng)
        pi = projective_implementation(povm)
        err = float(np.max(np.abs(pi.reconstruct() - povm.operator)))
        assert err <= 1e-8
        worst = max(worst, err)

    repeatable = 0
    for _ in range(100):
        qubits = int(rng.integers(1, 5))
        povm = random_binary_povm(1 << qubits, rng)
        threshold = float(rng.uniform(0, 1))
        state = haar_sample(qubits, rng)
        bit, post = threshold_measure(povm, threshold, state, rng)
        bit2, post2 = threshold_measure(povm, threshold, post, rng)
        if bit2 == bit and np.allclose(post2.amplitudes, post.amplitudes,
                                       atol=1e-9):
            repeatable += 1
    assert repeatable == 100
    print(f"criterion 8 PASS: worst reconstruction error {worst:.2e} "
          f"<= 1e-8 on 100 POVMs; repeatability 100/100")


def _re_oracle(one, x: ReInput) -> bytes:
    """Straight-line mode/tag branch table, written independently."""
    key = pprf_key_from_bytes(x.key)
    point = int.from_bytes(sha256(one.one_pk)[:8], "big")
    point >>= 64 - key.input_bits
    rand = pprf_eval(key, point)
    zeros = bytes(len(x.m))
    tag_self, tag_other = one.tag, x.one_pk[:16]
    if x.mode == 0:
        return one_enc(one.one_pk, x.m, rand)
    if x.mode == 1:
        body = zeros if tag_self <= tag_other else x.m
        return one_enc(one.one_pk, body, rand)
    if x.mode == 2:
        if tag_self < tag_other:
            return one_enc(one.one_pk, zeros, rand)
        if tag_self == tag_other:
            return x.one_ct
        return one_enc(one.one_pk, x.m, rand)
    raise AssertionError("oracle only covers modes 0..2")


def test_criterion_09_sde_ue_wiring():
    config = SdeConfig()
    rng = make_rng(213)

    sde = sde_setup(config, rng)
    keys = [sde_kg(sde, sde.msk, rng.bytes(32)) for _ in range(5)]
    round_trip_failures = 0
    for value in range(16):
        ct = sde_enc(sde, sde.pk, value, rng)
        for sk in keys:
            if sde_dec(sde, sk, ct) != bytes([value]):
                round_trip_failures += 1
    assert round_trip_failures == 0

    lo = one_setup(config.mini_n, b"acceptance-lo-seed")
    hi = one_setup(config.mini_n, b"acceptance-hi-seed")
    if lo.tag > hi.tag:
        lo, hi = hi, lo
    cases = 0
    for mode in (0, 1, 2):
        for one, other_pk in ((lo, hi.one_pk), (lo, lo.one_pk),
                              (hi, lo.one_pk)):
            for _ in range(16):
                x = ReInput(
                    m=message_to_bytes(config, int(rng.integers(0, 16))),
                    key=pprf_key_to_bytes(pprf_gen(64, 128, rng)),
                    mode=mode,
                    one_pk=other_pk,
                    one_ct=bytes(rng.bytes(config.inner_ct_len)),
                )
                data = re_input_to_bytes(x, config)
                assert re_eval(one, data, config) == _re_oracle(one, x)
                cases += 1
    assert cases == 3 * 3 * 16

    ue_keys = ue_kg(sde, rng)
    ue_failures = 0
    for _ in range(100):
        value = int(rng.integers(0, 16))
        ct = ue_enc(sde, ue_keys.ek, value, rng.bytes(32))
        if ue_dec(sde, ue_keys.dk, ct) != bytes([value]):
            ue_failures += 1
    assert ue_failures == 0

    wrapper = ue_ekdk_transform(sde)
    ekp, dkp = wrapper.kg(rng)
    assert ekp == dkp
    ekdk_failures = 0
    for _ in range(100):
        value = int(rng.integers(0, 16))
        wct = wrapper.enc(ekp, value, rng)
        if wrapper.dec(dkp, wct) != bytes([value]):
            ekdk_failures += 1
    assert ekdk_failures == 0

    shared = rng.bytes(32)
    a = ue_enc(sde, ue_keys.ek, 5, shared)
    b = ue_enc(sde, ue_keys.ek, 5, shared)
    assert a.masked == b.masked
    assert a.sde_sk.fsk == b.sde_sk.fsk
    assert a.sde_sk.one_pk == b.sde_sk.one_pk
    assert np.array_equal(a.sde_sk.one_sk[0].amplitudes,
                          b.sde_sk.one_sk[0].amplitudes)

    print("criterion 9 PASS: SDE round trips 16x5, mode table matches "
          "the independent oracle on 144/144, UE and ek=dk round trips "
          "100/100, encryption classically determined")


_CANONICAL = {
    "coin demo": ({"variant": "eqsup", "id_bits": 4, "mini_n": 8,
                   "attack": "zero-pad", "coins": 1}, 30),
    "detsig demo": ({"n": 6, "tag_bits": 16, "digest_bits": 16,
                     "message": "2a"}, None),
    "detsig sign": ({"n": 6, "tag_bits": 16, "digest_bits": 16,
                     "message": "2a"}, None),
    "detsig verify": (None, None),  # params built at runtime
    "detsig vectors": ({"n": 6, "tag_bits": 16, "digest_bits": 16,
                        "count": 4}, None),
    "purify typedist": ({"n": 3, "t": 2}, None),
    "purify compiler": ({"n": 3, "t": 2, "payload_qubits": 1,
                         "tol": 1e-9}, None),
    "prs demo": ({"n": 4}, None),
    "prs overlap": ({"k": 2, "ell": 32, "domain_bits": 6}, 25),
    "prs srd": ({"k": 2, "ell": 32, "domain": 4096}, 50),
    "mini demo": ({"n": 8}, None),
    "sde demo": ({"message_bits": 4, "keys": 2}, None),
    "ue demo": ({"message_bits": 4}, None),
    "game run": ({"name": "identical-challenge", "q": 2, "gamma": 0.1,
                  "adversary": "perfect-decryptors", "samples": 4}, 2),
    "vectors": ({}, None),
}


def test_criterion_10_reproducibility(tmp_path):
    # every registered experiment must have a canonical run here, so a
    # new subcommand cannot dodge the reproducibility gate
    assert set(_CANONICAL) == set(EXPERIMENTS)

    vk, sk = detsig.setup(6, 16, make_rng(77), digest_bits=16)
    sig_hex = detsig.sign(sk, 0x2A).to_bytes().hex()
    _CANONICAL["detsig verify"] = (
        {"n": 6, "tag_bits": 16, "digest_bits": 16, "message": "2a",
         "signature": sig_hex}, None)

    for fmt in ("json", "csv"):
        for i, (experiment, (params, trials)) in enumerate(
                sorted(_CANONICAL.items())):
            if fmt == "csv" and i % 5:
                continue  # CSV spot checks; JSON covers every experiment
            bodies = []
            for attempt in ("a", "b"):
                path = tmp_path / f"{experiment.replace(' ', '_')}.{attempt}"
                code = run(ExperimentConfig(
                    experiment=experiment, params=dict(params), seed=77,
                    trials=trials, out=str(path), fmt=fmt))
                assert code == 0, (experiment, fmt, code)
                bodies.append(report.strip_wall_time(path.read_text()))
            assert bodies[0] == bodies[1], (experiment, fmt)
    print(f"criterion 10 PASS: {len(_CANONICAL)} experiments re-run "
          f"byte-identical (JSON all, CSV spot checks)")
