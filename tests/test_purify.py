"""Purification compiler, t-copy averages, and range-compression tests.

Independent oracles used here:

* Both t-copy averages are diagonal in the multiset basis, so the trace
  distance has a closed form. The Haar average is I/D on the symmetric
  subspace, D = C(d+t-1, t); the distinct-type average spreads 1/C(d, t)
  over the C(d, t) distinct multisets. Splitting the diagonal into the
  shared support and the remainder gives TD = 1 - C(d, t) / D. The
  library returns that closed form; the dense averages it no longer
  builds are kept as the oracle, and their eigvalsh trace distance must
  match it.
* The distinct-image probability mass of uniform queries is re-derived by
  brute-force tuple enumeration, independent of the bincount fast path.
* For uniform queries and a uniform random index map the expected k=2
  mass factorizes by linearity: (1 - 1/|X|) * (1 - 1/ell).
"""

import functools
import itertools
import math

import numpy as np
import pytest

from helpers import (
    MAX_SYM_DIM,
    SmallRangeParams,
    haar_average_exact,
    peak_traced_bytes,
    small_range_states,
    type_average_exact,
)
from unclonelab.hilbert.hybrid import HybridState
from unclonelab.hilbert.states import (
    StateVector,
    basis_state,
    haar_sample,
    tensor,
)
from unclonelab import purify
from unclonelab.purify import (
    MAX_TYPEDIST_N,
    MAX_TYPEDIST_T,
    GenStateSpec,
    classical_srd_experiment,
    compiler_equivalence_check,
    small_range_experiment,
    small_range_overlap_mass,
    symmetrized_state,
    type_vs_haar_distance,
)
from unclonelab.rng import make_rng


def _td_oracle(n: int, t: int) -> float:
    d = 1 << n
    return 1.0 - math.comb(d, t) / math.comb(d + t - 1, t)


def _mass_bruteforce(index_map, k: int) -> float:
    # share of the k-tuples of uniform queries with distinct images
    size = len(index_map)
    hits = sum(len({int(index_map[x]) for x in tup}) == k
               for tup in itertools.product(range(size), repeat=k))
    return hits / size**k


def _seeded_haar_generator(q: int):
    def gen(z: bytes, rand: bytes) -> StateVector:
        return haar_sample(q, make_rng(int.from_bytes(rand, "big")))

    return gen


class TestTypeVsHaarExact:
    def test_matches_closed_form_t2(self):
        for n in (3, 4, 5, 6):
            out = type_vs_haar_distance(n, 2)
            assert out["method"] == "exact"
            assert out["td_estimate"] == pytest.approx(_td_oracle(n, 2), abs=1e-12)

    def test_t1_averages_coincide(self):
        out = type_vs_haar_distance(4, 1)
        assert out["td_estimate"] == pytest.approx(0.0, abs=1e-12)

    def test_t3_value(self):
        # d = 8: 1 - C(8,3)/C(10,3) = 1 - 56/120
        out = type_vs_haar_distance(3, 3)
        assert out["td_estimate"] == pytest.approx(1.0 - 56.0 / 120.0, abs=1e-12)

    def test_distance_within_reported_bound(self):
        for n in (3, 4, 5, 6):
            out = type_vs_haar_distance(n, 2)
            assert out["bound"] == pytest.approx(16.0 / 2**n)
            assert out["td_estimate"] <= out["bound"]

    def test_strictly_decreasing_in_n(self):
        tds = [type_vs_haar_distance(n, 2)["td_estimate"] for n in (3, 4, 5, 6)]
        assert all(a > b for a, b in zip(tds, tds[1:]))

    def test_inverse_dimension_scaling(self):
        # tripling n multiplies d by 8; the distance should shrink by
        # about that factor (within x2 either way)
        lo = type_vs_haar_distance(3, 2)["td_estimate"]
        hi = type_vs_haar_distance(6, 2)["td_estimate"]
        assert 4.0 <= lo / hi <= 16.0

    def test_average_matrices(self):
        haar, dim = haar_average_exact(3, 2)
        assert dim == math.comb(9, 2) == 36
        assert haar.shape == (36, 36)
        assert np.trace(haar) == pytest.approx(1.0)
        ty = type_average_exact(3, 2)
        assert np.trace(ty) == pytest.approx(1.0)
        assert np.count_nonzero(np.diag(ty)) == math.comb(8, 2)
        assert np.count_nonzero(ty - np.diag(np.diag(ty))) == 0

    def test_eigvalsh_oracle(self):
        # every (n, t) whose multiset basis fits the dense builders' cap,
        # up to dimension 2080 (n=6, t=2); the three larger pairs (3432,
        # 3876 and 4096) would add ~28 s and ~580 MB to the suite
        pairs = [(n, t) for n in range(1, 13) for t in range(1, (1 << n) + 1)
                 if math.comb((1 << n) + t - 1, t) <= 2080]
        assert len(pairs) == 24
        for n, t in pairs:
            haar, _ = haar_average_exact(n, t)
            diff = haar - type_average_exact(n, t)
            eig_td = 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())
            assert type_vs_haar_distance(n, t)["td_estimate"] == pytest.approx(
                eig_td, abs=1e-12), (n, t)

    def test_dimension_cap(self):
        # the dense builders keep the cap; the closed form needs none
        assert math.comb(66, 3) > MAX_SYM_DIM
        with pytest.raises(ValueError):
            haar_average_exact(6, 3)
        with pytest.raises(ValueError):
            type_average_exact(6, 3)
        out = type_vs_haar_distance(6, 3)
        assert out["td_estimate"] == pytest.approx(
            1.0 - math.comb(64, 3) / math.comb(66, 3), abs=1e-15)

    def test_needs_enough_labels(self):
        with pytest.raises(ValueError):
            type_vs_haar_distance(1, 3)

    def test_caps_checked_before_the_binomials(self):
        out = type_vs_haar_distance(MAX_TYPEDIST_N, MAX_TYPEDIST_T)
        assert 0.0 < out["td_estimate"] <= out["bound"]
        for n, t, message in ((MAX_TYPEDIST_N + 1, 2, "n must be at most"),
                              (2**31, 2, "n must be at most"),
                              (MAX_TYPEDIST_N, MAX_TYPEDIST_T + 1,
                               "t must be at most")):
            with pytest.raises(ValueError, match=message):
                type_vs_haar_distance(n, t)


class TestSymmetrizedState:
    def test_single_copy_is_the_payload(self):
        payload = haar_sample(2, make_rng(3))
        state = symmetrized_state([5], [payload])
        assert len(state.labels()) == 1
        assert np.allclose(state.branch_vector((5,)), payload.amplitudes)

    def test_identical_payloads_reduce_to_label_type_state(self):
        payload = haar_sample(1, make_rng(4))
        state = symmetrized_state([1, 2], [payload, payload])
        pair = tensor(payload, payload)
        expected = HybridState.from_terms(2, [
            ((1, 2), 1.0 / math.sqrt(2), pair),
            ((2, 1), 1.0 / math.sqrt(2), pair),
        ])
        assert abs(state.inner(expected)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_permuting_inputs_is_a_no_op(self):
        rng = make_rng(7)
        payloads = [haar_sample(1, rng) for _ in range(3)]
        labels = [0, 3, 5]
        a = symmetrized_state(labels, payloads)
        order = [2, 0, 1]
        b = symmetrized_state([labels[i] for i in order],
                              [payloads[i] for i in order])
        assert a.allclose(b)

    def test_orthogonal_payloads_still_unit_norm(self):
        state = symmetrized_state([0, 1], [basis_state(1, 0), basis_state(1, 1)])
        assert state.norm() == pytest.approx(1.0, abs=1e-12)
        assert len(state.labels()) == 2

    def test_input_validation(self):
        payload = basis_state(1, 0)
        with pytest.raises(ValueError):
            symmetrized_state([0, 0], [payload, payload])
        with pytest.raises(ValueError):
            symmetrized_state([0, 1], [payload])
        with pytest.raises(ValueError):
            symmetrized_state([0, 1], [payload, basis_state(2, 0)])
        with pytest.raises(ValueError):
            symmetrized_state(list(range(7)), [payload] * 7)


class TestCompilerEquivalence:
    def test_exact_gap_zero_per_copy_count(self):
        for t in (1, 2, 3):
            spec = GenStateSpec(b"", 16, 1, _seeded_haar_generator(1))
            out = compiler_equivalence_check(spec, 3, t, make_rng(20 + t))
            assert out["n"] == 3 and out["t"] == t
            assert len(out["chosen_labels"]) == t
            assert out["exact_gap"] <= 1e-12

    def test_exact_gap_zero_random_configs(self):
        rng = make_rng(21)
        for _ in range(12):
            n = int(rng.integers(1, 5))
            t = int(rng.integers(1, 4))
            while (1 << n) < t:
                n += 1
            q = int(rng.integers(1, 3))
            spec = GenStateSpec(b"", 16, q, _seeded_haar_generator(q))
            out = compiler_equivalence_check(spec, n, t, rng)
            assert out["exact_gap"] <= 1e-9, (n, t, q)

    @pytest.mark.parametrize("mutation", ["unpermuted", "sign"])
    def test_a_wrong_simulator_shows_a_gap(self, monkeypatch, mutation):
        def unpermuted(labels, payloads):
            # labels permute, payloads stay in drawn order
            scale = 1.0 / math.sqrt(math.factorial(len(labels)))
            joint = functools.reduce(tensor, payloads)
            return HybridState.from_terms(
                joint.num_qubits,
                [(perm, scale, joint)
                 for perm in itertools.permutations(labels)])

        def sign(labels, payloads):
            # one ordering's amplitude negated
            state = symmetrized_state(labels, payloads)
            first = state.labels()[0]
            return HybridState(state.payload_qubits, [
                (lab, -state.branch_vector(lab) if lab == first
                 else state.branch_vector(lab)) for lab in state.labels()])

        monkeypatch.setattr(purify, "symmetrized_state",
                            {"unpermuted": unpermuted, "sign": sign}[mutation])
        for t, seed in ((2, 7), (3, 8)):
            spec = GenStateSpec(b"", 16, 1, _seeded_haar_generator(1))
            out = compiler_equivalence_check(spec, 3, t, make_rng(seed))
            assert out["exact_gap"] > 1e-3, (mutation, t)

    def test_config_caps(self):
        spec = GenStateSpec(b"", 8, 1, _seeded_haar_generator(1))
        with pytest.raises(ValueError):
            compiler_equivalence_check(spec, 5, 2, make_rng(0))
        with pytest.raises(ValueError):
            compiler_equivalence_check(spec, 3, 4, make_rng(0))

    def test_copy_count_must_fit_the_label_space(self):
        spec = GenStateSpec(b"", 8, 1, _seeded_haar_generator(1))
        for n, t in ((3, 0), (0, 2), (1, 3)):
            with pytest.raises(ValueError, match=r"1 <= t <= min\(3, 2\^n\)"):
                compiler_equivalence_check(spec, n, t, make_rng(0))
        assert compiler_equivalence_check(spec, 0, 1, make_rng(0))["t"] == 1

    def test_payload_cap_applies_before_any_sampling(self):
        def check(q):
            with pytest.raises(ValueError, match="payload limited"):
                spec = GenStateSpec(b"", 16, q, _seeded_haar_generator(q))
                compiler_equivalence_check(spec, 3, 2, make_rng(0))

        for q in (7, 22):
            _, peak = peak_traced_bytes(check, q)
            assert peak < 1 << 20, q


class TestSmallRangeStates:
    def _instance(self, k, ell, domain_bits, rng, concentrated=False):
        size = 1 << domain_bits
        queries = []
        for _ in range(k):
            if concentrated:
                v = np.zeros(size, dtype=complex)
                v[0] = 1.0
            else:
                v = rng.normal(size=size) + 1j * rng.normal(size=size)
                v = v / np.linalg.norm(v)
            queries.append(v)
        samples = [haar_sample(1, rng) for _ in range(ell)]
        index_map = rng.integers(0, ell, size=size)
        params = SmallRangeParams(k=k, range_size=ell, accuracy=0.5,
                                  domain_bits=domain_bits)
        return params, queries, samples, index_map

    def test_single_query_never_collides(self):
        params, queries, samples, index_map = self._instance(1, 4, 3, make_rng(30))
        phi, phi0, overlap = small_range_states(params, queries, samples, index_map)
        assert overlap == pytest.approx(1.0, abs=1e-12)
        assert phi0 is not None
        assert phi.allclose(phi0)
        assert small_range_overlap_mass(1, index_map, 4) == 1.0

    def test_restriction_support_is_distinct_image_tuples(self):
        params, queries, samples, index_map = self._instance(2, 4, 3, make_rng(31))
        _, phi0, _ = small_range_states(params, queries, samples, index_map)
        assert phi0 is not None
        assert phi0.norm() == pytest.approx(1.0, abs=1e-12)
        for label in phi0.labels():
            images = [int(index_map[x]) for x in label]
            assert len(set(images)) == len(images)

    def test_state_route_matches_both_mass_routes(self):
        rng = make_rng(32)
        for k in (1, 2, 3):
            params, _, samples, index_map = self._instance(k, 4, 3, rng)
            # uniform queries with random phases
            queries = [np.exp(2j * np.pi * rng.random(8)) / math.sqrt(8)
                       for _ in range(k)]
            _, _, overlap = small_range_states(params, queries, samples, index_map)
            brute = _mass_bruteforce(index_map, k)
            fast = small_range_overlap_mass(k, index_map, 4)
            assert fast == pytest.approx(brute, abs=1e-12)
            assert overlap == pytest.approx(brute, abs=1e-9)

    def test_pinned_queries_always_collide(self):
        params, queries, samples, index_map = self._instance(
            2, 4, 2, make_rng(33), concentrated=True)
        phi, phi0, overlap = small_range_states(params, queries, samples, index_map)
        assert phi0 is None
        assert overlap == 0.0
        assert len(phi.labels()) == 1

    def test_validation(self):
        params, queries, samples, index_map = self._instance(2, 4, 3, make_rng(34))
        bad = [q * 2.0 for q in queries]
        with pytest.raises(ValueError):
            small_range_states(params, bad, samples, index_map)
        with pytest.raises(ValueError):
            small_range_states(SmallRangeParams(4, 4, 0.5, 3),
                               queries + queries, samples, index_map)
        with pytest.raises(ValueError):
            small_range_overlap_mass(4, index_map[:4], 4)


class TestSmallRangeExperiment:
    def test_uniform_mean_matches_product_formula(self):
        out = small_range_experiment(2, 32, 6, 600, make_rng(35))
        # each ordered pair of distinct inputs keeps distinct images with
        # probability 1 - 1/ell, so the mean mass factorizes exactly
        expected = (1.0 - 1.0 / 64.0) * (1.0 - 1.0 / 32.0)
        assert out["mean_overlap"] == pytest.approx(
            expected, abs=5.0 * out["stderr"] + 1e-9)
        assert out["mean_overlap"] >= out["bound"]
        assert out["bound"] == pytest.approx(1.0 - 4.0 / 32.0)

    def test_rejects_non_positive_trials(self):
        for trials in (0, -1):
            with pytest.raises(ValueError, match="trials must be positive"):
                small_range_experiment(2, 32, 6, trials, make_rng(0))

    @pytest.mark.parametrize("k, ell, domain_bits, trials, message", [
        (1 << 40, 32, 40, 1, r"k <= 3"),
        (2, 32, 40, 1, "domain_bits must be at most 20"),
        (2, 1 << 40, 6, 1, "ell must be at most 1048576"),
        (2, 32, 6, 1 << 40, "trials must be at most 1048576"),
    ])
    def test_refuses_oversize_arrays_before_allocating(self, k, ell,
                                                       domain_bits, trials,
                                                       message):
        with pytest.raises(ValueError, match=message):
            small_range_experiment(k, ell, domain_bits, trials, make_rng(0))


class TestClassicalSRD:
    def test_tiny_range_maximal_advantage(self):
        out = classical_srd_experiment(3, 1, 1000, 800, make_rng(36))
        assert out["p_collision_small"] == 1.0
        assert out["advantage"] > 0.9

    def test_large_range_kills_advantage(self):
        k = 2
        ell = 1000 * k**3
        out = classical_srd_experiment(k, ell, 1000, 3000, make_rng(37))
        assert out["advantage"] <= 0.01
        assert out["envelope"] == pytest.approx(k**3 / ell)

    def test_single_query_no_signal(self):
        out = classical_srd_experiment(1, 4, 16, 200, make_rng(38))
        assert out["p_collision_full"] == 0.0
        assert out["p_collision_small"] == 0.0
        assert out["advantage"] == 0.0

    def test_rejects_non_positive_trials(self):
        for trials in (0, -1):
            with pytest.raises(ValueError, match="trials must be positive"):
                classical_srd_experiment(2, 32, 4096, trials, make_rng(0))

    def test_needs_distinct_query_points(self):
        with pytest.raises(ValueError):
            classical_srd_experiment(5, 4, 3, 10, make_rng(0))

    @pytest.mark.parametrize("k, ell, domain, message", [
        (1 << 40, 32, (1 << 40) + 1, "k must be at most 1048576"),
        (2, 1 << 40, 4096, "ell must be at most 1048576"),
    ])
    def test_refuses_oversize_arrays_before_allocating(self, k, ell, domain,
                                                       message):
        with pytest.raises(ValueError, match=message):
            classical_srd_experiment(k, ell, domain, 1, make_rng(0))
