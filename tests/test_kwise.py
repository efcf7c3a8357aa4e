"""GF(2^m) polynomial functions: field arithmetic against an independent
eager-reduction oracle, Horner evaluation against a direct power-sum oracle,
output resizing, and a pairwise chi-square uniformity test."""

import numpy as np
import pytest
from scipy.stats import chi2

from unclonelab.primitives.kwise import (
    REDUCTION_POLYS,
    KwiseFunction,
    gf_mul,
    kwise_eval,
    kwise_gen,
)
from unclonelab.rng import make_rng


def _mul_oracle(a, b, m):
    # Eager modular reduction each doubling step (xtime chain), structurally
    # unlike the carry-less-then-reduce implementation.
    poly_low = REDUCTION_POLYS[m] & ((1 << m) - 1)
    mask = (1 << m) - 1
    r = 0
    for _ in range(m):
        if b & 1:
            r ^= a
        b >>= 1
        carry = (a >> (m - 1)) & 1
        a = (a << 1) & mask
        if carry:
            a ^= poly_low
    return r


def _poly_oracle(coeffs, x, m):
    acc = 0
    power = 1
    for c in coeffs:
        acc ^= _mul_oracle(c, power, m)
        power = _mul_oracle(power, x, m)
    return acc


class TestFieldArithmetic:
    def test_mul_matches_oracle_small_fields_exhaustive(self):
        for m in (1, 2, 3):
            for a in range(1 << m):
                for b in range(1 << m):
                    assert gf_mul(a, b, m) == _mul_oracle(a, b, m)

    def test_mul_matches_oracle_random(self):
        rng = make_rng(0)
        for m in (4, 8, 16):
            hi = 1 << m
            for _ in range(500):
                a, b = int(rng.integers(hi)), int(rng.integers(hi))
                assert gf_mul(a, b, m) == _mul_oracle(a, b, m)

    def test_identity_and_zero(self):
        for m in (2, 8, 16):
            for a in (0, 1, (1 << m) - 1):
                assert gf_mul(a, 1, m) == a
                assert gf_mul(1, a, m) == a
                assert gf_mul(a, 0, m) == 0

    def test_no_zero_divisors_m8_exhaustive(self):
        for a in range(1, 256):
            for b in range(1, 256):
                assert gf_mul(a, b, 8) != 0

    def test_no_zero_divisors_m16_sampled(self):
        rng = make_rng(1)
        for _ in range(20_000):
            a = int(rng.integers(1, 1 << 16))
            b = int(rng.integers(1, 1 << 16))
            assert gf_mul(a, b, 16) != 0

    def test_commutative_distributive(self):
        rng = make_rng(2)
        for _ in range(200):
            a, b, c = (int(v) for v in rng.integers(0, 256, size=3))
            assert gf_mul(a, b, 8) == gf_mul(b, a, 8)
            assert gf_mul(a, b ^ c, 8) == gf_mul(a, b, 8) ^ gf_mul(a, c, 8)


class TestEval:
    def test_degree_one_matches_direct_arithmetic(self):
        rng = make_rng(3)
        for m in (8, 16):
            hi = 1 << m
            c0, c1 = int(rng.integers(hi)), int(rng.integers(hi))
            f = KwiseFunction(1, m, (c0, c1), m)
            for _ in range(100):
                x = int(rng.integers(hi))
                assert kwise_eval(f, x) == c0 ^ _mul_oracle(c1, x, m)

    def test_all_zero_coefficients(self):
        f = KwiseFunction(2, 8, (0, 0, 0, 0), 8)
        assert all(kwise_eval(f, x) == 0 for x in range(256))

    def test_horner_matches_power_sum_oracle(self):
        rng = make_rng(4)
        for k in (1, 2, 3):
            f = kwise_gen(k, 8, 8, rng)
            for x in range(256):
                assert kwise_eval(f, x) == _poly_oracle(f.coefficients, x, 8)
        f16 = kwise_gen(2, 16, 16, rng)
        for _ in range(200):
            x = int(rng.integers(1 << 16))
            assert kwise_eval(f16, x) == _poly_oracle(f16.coefficients, x, 16)

    def test_truncation_keeps_top_bits(self):
        f = KwiseFunction(1, 8, (0b1011_0110, 0), 3)
        assert kwise_eval(f, 0) == 0b101
        assert kwise_eval(f, 255) == 0b101

    def test_widening_tiles_pattern(self):
        c0 = 0xA5
        f = KwiseFunction(1, 8, (c0, 0), 20)
        assert kwise_eval(f, 17) == (c0 << 12) | (c0 << 4) | (c0 >> 4)

    def test_rejects_out_of_range_input(self):
        f = KwiseFunction(1, 8, (1, 2), 8)
        with pytest.raises(ValueError):
            kwise_eval(f, 256)
        with pytest.raises(ValueError):
            kwise_eval(f, -1)

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            KwiseFunction(1, 17, (0, 0), 8)  # no reduction polynomial for m=17
        with pytest.raises(ValueError):
            KwiseFunction(2, 8, (0, 0, 0), 8)
        with pytest.raises(ValueError):
            KwiseFunction(1, 8, (256, 0), 8)
        with pytest.raises(ValueError):
            KwiseFunction(1, 8, (0, 0), 0)

    def test_gen_deterministic(self):
        a = kwise_gen(2, 8, 8, make_rng(5))
        b = kwise_gen(2, 8, 8, make_rng(5))
        assert a == b


def _const_mul_table(c, m):
    return np.array([gf_mul(c, v, m) for v in range(1 << m)], dtype=np.uint16)


def _batch_eval_cubic(coeff_cols, x):
    # f(x) for fixed x across many coefficient tuples, via constant-multiplier
    # lookup tables: f = c0 + c1 x + c2 x^2 + c3 x^3 over GF(2^8).
    t1 = _const_mul_table(x, 8)
    t2 = _const_mul_table(gf_mul(x, x, 8), 8)
    t3 = _const_mul_table(gf_mul(gf_mul(x, x, 8), x, 8), 8)
    c0, c1, c2, c3 = coeff_cols
    return c0 ^ t1[c1] ^ t2[c2] ^ t3[c3]


class TestPairwiseUniformity:
    X1, X2 = 0x03, 0xA7

    def test_batch_route_matches_eval(self):
        rng = make_rng(6)
        coeffs = rng.integers(0, 256, size=(4, 500)).astype(np.uint16)
        batch = _batch_eval_cubic(coeffs, self.X1)
        for j in range(500):
            f = KwiseFunction(2, 8, tuple(int(coeffs[i, j]) for i in range(4)), 8)
            assert kwise_eval(f, self.X1) == int(batch[j])

    def test_joint_chi2_at_significance_0p001(self):
        n = 400_000
        rng = make_rng(7)
        coeffs = rng.integers(0, 256, size=(4, n)).astype(np.uint16)
        f1 = _batch_eval_cubic(coeffs, self.X1)
        f2 = _batch_eval_cubic(coeffs, self.X2)
        cells = np.bincount(f1 * 256 + f2, minlength=65536)
        expected = n / 65536
        stat = float(((cells - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(0.999, 65535)
