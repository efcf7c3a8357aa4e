"""Binary-phase states: structure, determinism, overlap statistics, and
measurement uniformity."""

import numpy as np
import pytest
from scipy.stats import chi2

from helpers import swap_test
from unclonelab.prs import prs_amplitudes, prs_setup, prs_state
from unclonelab.primitives.pprf import pprf_eval
from unclonelab.rng import make_rng


class TestConstruction:
    def test_norm_one(self):
        for n in (1, 4, 8):
            state = prs_state(prs_setup(n, make_rng(n)))
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12

    def test_every_amplitude_has_uniform_modulus(self):
        key = prs_setup(6, make_rng(0))
        amps = prs_amplitudes(key)
        assert amps.shape == (64,)
        assert np.allclose(np.abs(amps), 2 ** -3.0)

    def test_phases_match_prf_bits(self):
        key = prs_setup(5, make_rng(1))
        amps = prs_amplitudes(key)
        for x in range(32):
            bit = pprf_eval(key.phase_fn, x)[0] >> 7
            assert amps[x].real == pytest.approx((-1) ** bit * 2**-2.5)
            assert amps[x].imag == 0

    def test_deterministic(self):
        key = prs_setup(4, make_rng(2))
        a = prs_state(key).amplitudes
        b = prs_state(key).amplitudes
        assert a.tobytes() == b.tobytes()

    def test_fixed_seed_reproducible(self):
        a = prs_state(prs_setup(4, make_rng(3))).amplitudes
        b = prs_state(prs_setup(4, make_rng(3))).amplitudes
        assert a.tobytes() == b.tobytes()

    def test_distinct_seeds_distinct_keys(self):
        seeds = {prs_setup(8, make_rng(i)).phase_fn.root_seed for i in range(50)}
        assert len(seeds) == 50

    def test_n_bounds(self):
        assert prs_state(prs_setup(1, make_rng(0))).num_qubits == 1
        with pytest.raises(ValueError):
            prs_setup(0, make_rng(0))
        with pytest.raises(ValueError):
            prs_setup(21, make_rng(0))

    def test_swap_test_self_is_one(self):
        state = prs_state(prs_setup(4, make_rng(4)))
        assert swap_test(state, state) == 1.0


class TestStatistics:
    def test_mean_pairwise_overlap_matches_haar_second_moment(self):
        # 200 disjoint key pairs at n=4: mean |<psi|psi'>|^2 should sit at
        # 2^-4 like the Haar second moment
        rng = make_rng(0)
        states = [prs_state(prs_setup(4, rng)).amplitudes for _ in range(400)]
        overlaps = [
            abs(np.vdot(states[2 * i], states[2 * i + 1])) ** 2 for i in range(200)
        ]
        assert abs(float(np.mean(overlaps)) - 2**-4) < 0.01

    def test_measurement_distribution_uniform_chi2(self):
        key = prs_setup(4, make_rng(8))
        probs = np.abs(prs_state(key).amplitudes) ** 2
        shots = make_rng(9).choice(16, size=10_000, p=probs)
        counts = np.bincount(shots, minlength=16)
        expected = 10_000 / 16
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(0.999, 15)
