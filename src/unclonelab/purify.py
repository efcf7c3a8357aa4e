"""Purification compiler endpoints and range-compression experiments.

The compiler turns independent samples of a generated mixed state into
copies of one indexed pure state: branch x of the purified state carries a
pseudorandom phase amplitude and the payload generated from PRF randomness
at x. The proof-side simulator prepares a symmetrized register state over
t distinct labels. compiler_equivalence_check builds both endpoint states
from one shared randomness transcript and reports the exact vector gap.
The two routes share no construction: the product route enumerates every
ordered label tuple of the t-fold product state and keeps those that
realize the chosen label set, while the simulator route permutes the
(label, payload) pairs, so a simulator whose payloads do not follow their
labels, or whose orderings disagree in sign, shows a gap of order one.

type_vs_haar_distance realizes the t-copy closeness bound between averaged
distinct type states and the Haar average, exactly by its closed form in
the symmetric multiset basis or by Monte Carlo in the full product space.
The dense averages that check the closed form live with the tests.

small_range_states and the surrounding experiments quantify how much an
oracle with only ell distinct outputs can be told apart from a fresh one.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hilbert.hybrid import HybridState
from .hilbert.states import (
    MAX_STATE_AMPLITUDES,
    StateVector,
    haar_sample,
    tensor,
    type_state,
)
from .primitives.pprf import PprfKey, pprf_eval_many
from .prs import MAX_QUBITS, PrsKey, prs_amplitudes

C_SRD_DEFAULT = 1.0
C_OSRD_DEFAULT = 16.0

MAX_LABEL_BITS = 12
MAX_PAYLOAD_QUBITS = 6
MAX_COPIES = 6
MAX_FULL_QUBITS = 10


@dataclass(frozen=True)
class GenStateSpec:
    z: bytes
    randomness_bits: int
    payload_qubits: int
    generator: Callable[[bytes, bytes], StateVector]

    def __post_init__(self):
        if self.payload_qubits > MAX_PAYLOAD_QUBITS:
            raise ValueError(f"payload limited to {MAX_PAYLOAD_QUBITS} qubits")

    def payload(self, rand: bytes) -> StateVector:
        state = self.generator(self.z, rand)
        if state.num_qubits != self.payload_qubits:
            raise ValueError("generator produced wrong payload width")
        return state


@dataclass(frozen=True)
class SmallRangeParams:
    k: int
    range_size: int
    accuracy: float
    domain_bits: int


def small_range_size(accuracy: float, k: int) -> int:
    return int(math.ceil(C_OSRD_DEFAULT * accuracy**2 * k**3))


def purified_state(spec: GenStateSpec, prs_key: PrsKey, pprf_key: PprfKey) -> HybridState:
    n = prs_key.n
    if n > MAX_LABEL_BITS:
        raise ValueError(f"label register limited to {MAX_LABEL_BITS} bits")
    if pprf_key.input_bits != n:
        raise ValueError("PRF input width must match the label register")
    if pprf_key.output_bits != spec.randomness_bits:
        raise ValueError("PRF output width must match the generator randomness")
    amps = prs_amplitudes(prs_key)
    terms = [
        ((x,), complex(amps[x]), spec.payload(rand))
        for x, rand in enumerate(pprf_eval_many(pprf_key, range(1 << n)))
    ]
    return HybridState.from_terms(spec.payload_qubits, terms)


def symmetrized_state(labels: list[int], payloads: list[StateVector]) -> HybridState:
    """Equal superposition of all simultaneous permutations of the t
    (label, payload) register pairs."""
    t = len(labels)
    if t != len(payloads):
        raise ValueError("need one payload per label")
    if t > MAX_COPIES:
        raise ValueError(f"at most {MAX_COPIES} copies")
    if len(set(labels)) != t:
        raise ValueError("labels must be distinct")
    q = payloads[0].num_qubits
    if any(p.num_qubits != q for p in payloads):
        raise ValueError("payloads must share one width")
    scale = 1.0 / math.sqrt(math.factorial(t))
    terms = []
    for perm in itertools.permutations(range(t)):
        label = tuple(labels[i] for i in perm)
        joint = functools.reduce(tensor, (payloads[i] for i in perm))
        terms.append((label, scale, joint))
    return HybridState.from_terms(q * t, terms)


def simulate_copies(samples: list[StateVector], n: int,
                    rng: np.random.Generator) -> HybridState:
    """Simulator endpoint: pick t distinct n-bit labels, symmetrize them
    against the t sampled payloads."""
    t = len(samples)
    if t > MAX_COPIES:
        raise ValueError(f"at most {MAX_COPIES} copies")
    if (1 << n) < t:
        raise ValueError("label space smaller than the copy count")
    labels = [int(v) for v in rng.choice(1 << n, size=t, replace=False)]
    return symmetrized_state(labels, samples)


def _distinct_product_conditional(phases: np.ndarray, payloads: list[StateVector],
                                  chosen: tuple[int, ...], n: int) -> HybridState:
    # t-fold product of sum_x phase_x 2^{-n/2} |x>|payload_x>: every ordered
    # label tuple whose labels are exactly the chosen set, weighted by the
    # product of its per-copy amplitudes, renormalized by the kept mass
    t = len(chosen)
    target = sorted(chosen)
    amp = 2.0 ** (-n / 2)
    terms = []
    for labels in itertools.product(range(1 << n), repeat=t):
        if sorted(labels) == target:
            weight = math.prod(phases[x] * amp for x in labels)
            joint = functools.reduce(tensor, (payloads[x] for x in labels))
            terms.append((labels, weight, joint))
    mass = math.sqrt(sum(w * w for _, w, _ in terms))
    return HybridState.from_terms(
        payloads[0].num_qubits * t,
        [(labels, w / mass, joint) for labels, w, joint in terms])


def compiler_equivalence_check(spec: GenStateSpec, n: int, t: int,
                               rng: np.random.Generator) -> dict:
    """Build both endpoint states from one randomness transcript and
    report the exact vector-norm gap.

    Transcript: a truly random phase table, a truly random function table
    feeding the generator, and the simulator's choice of t distinct labels.
    The product-state route conditioned on that label set must equal the
    symmetrized simulator state times the transcript's phase product.
    """
    if n > 4 or not 1 <= t <= min(3, 1 << n):
        raise ValueError("equivalence check runs at n <= 4, 1 <= t <= min(3, 2^n)")
    size = 1 << n
    phases = 1.0 - 2.0 * rng.integers(0, 2, size=size)
    rand_bytes = (spec.randomness_bits + 7) // 8
    table = [rng.bytes(rand_bytes) for _ in range(size)]
    payloads = [spec.payload(table[x]) for x in range(size)]
    chosen = tuple(int(v) for v in rng.choice(size, size=t, replace=False))

    conditional = _distinct_product_conditional(phases, payloads, chosen, n)
    eta = symmetrized_state(list(chosen), [payloads[x] for x in chosen])
    # the conditional state equals eta times the transcript's phase product;
    # compare the literal branch vectors so the gap sits at the rounding
    # floor instead of amplifying cancellation through inner products
    sign = float(np.prod([phases[x] for x in chosen]))
    cond_labels = set(conditional.labels())
    eta_labels = set(eta.labels())
    zero = np.zeros(1 << eta.payload_qubits, dtype=np.complex128)
    gap_sq = 0.0
    for label in cond_labels | eta_labels:
        va = conditional.branch_vector(label) if label in cond_labels else zero
        vb = eta.branch_vector(label) if label in eta_labels else zero
        gap_sq += float(np.linalg.norm(va - sign * vb) ** 2)
    gap = math.sqrt(gap_sq)
    return {"n": n, "t": t, "chosen_labels": list(chosen), "exact_gap": float(gap)}


def _trace_distance_matrix(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def type_vs_haar_distance(n: int, t: int, num_haar_samples: int | None = None,
                          rng: np.random.Generator | None = None) -> dict:
    """Trace distance between the t-copy Haar average and the distinct-type
    average; exact (closed form) unless Monte Carlo is requested."""
    d = 1 << n
    if d < t:
        raise ValueError("need at least t distinct basis labels")
    bound = 4.0 * t * t / d
    if num_haar_samples is None:
        # in the multiset basis the Haar average is I/D (D = C(d+t-1, t))
        # and the type average puts 1/C(d, t) on each distinct multiset,
        # so the trace distance is 1 - C(d, t)/D
        dim = math.comb(d + t - 1, t)
        td = (dim - math.comb(d, t)) / dim
        return {"n": n, "t": t, "td_estimate": td, "bound": bound, "method": "exact"}
    if n * t > MAX_FULL_QUBITS:
        raise ValueError(f"Monte Carlo path limited to n*t <= {MAX_FULL_QUBITS}")
    if rng is None:
        raise ValueError("Monte Carlo path needs an rng")
    full = d**t
    haar_avg = np.zeros((full, full), dtype=complex)
    for _ in range(num_haar_samples):
        psi = haar_sample(n, rng).amplitudes
        copy = psi
        for _ in range(t - 1):
            copy = np.kron(copy, psi)
        haar_avg += np.outer(copy, copy.conj())
    haar_avg /= num_haar_samples
    type_avg = np.zeros((full, full), dtype=complex)
    subsets = list(itertools.combinations(range(d), t))
    for s in subsets:
        vec = type_state(list(s), n).amplitudes
        type_avg += np.outer(vec, vec.conj())
    type_avg /= len(subsets)
    td = _trace_distance_matrix(haar_avg, type_avg)
    return {
        "n": n, "t": t, "td_estimate": td, "bound": bound,
        "method": "monte-carlo", "num_haar_samples": num_haar_samples,
    }


def small_range_states(params: SmallRangeParams, query_amplitudes: list[np.ndarray],
                       sample_states: list[StateVector], index_map: np.ndarray,
                       ) -> tuple[HybridState, HybridState | None, float]:
    """Joint query-response state under a range-compressed oracle, its
    restriction to tuples with pairwise-distinct compressed indices, and
    the exact overlap between the two."""
    k, ell = params.k, params.range_size
    size = 1 << params.domain_bits
    if size > 256 or k > 3 or ell > 64:
        raise ValueError("small-range construction caps: |X| <= 256, k <= 3, ell <= 64")
    if len(query_amplitudes) != k or len(sample_states) != ell:
        raise ValueError("need k query vectors and ell sample states")
    q = sample_states[0].num_qubits
    if q > 3:
        raise ValueError("payloads limited to 3 qubits")
    index_map = np.asarray(index_map)
    for beta in query_amplitudes:
        if abs(float(np.sum(np.abs(np.asarray(beta)) ** 2)) - 1.0) > 1e-9:
            raise ValueError("each query amplitude vector must be normalized")

    full_terms = []
    distinct_terms = []
    for tup in itertools.product(range(size), repeat=k):
        amp = complex(np.prod([query_amplitudes[j][tup[j]] for j in range(k)]))
        if amp == 0:
            continue
        images = [int(index_map[x]) for x in tup]
        joint = functools.reduce(tensor, (sample_states[i] for i in images))
        full_terms.append((tup, amp, joint))
        if len(set(images)) == k:
            distinct_terms.append((tup, amp, joint))

    phi = HybridState.from_terms(q * k, full_terms)
    if not distinct_terms:
        return phi, None, 0.0
    mass = math.sqrt(sum(abs(a) ** 2 for _, a, _ in distinct_terms))
    phi0 = HybridState.from_terms(
        q * k, [(lab, a / mass, pay) for lab, a, pay in distinct_terms]
    )
    overlap = abs(phi.inner(phi0)) ** 2
    return phi, phi0, float(overlap)


def small_range_overlap_mass(query_probs: list[np.ndarray], index_map: np.ndarray,
                             ell: int) -> float:
    """Fast route to the same overlap: probability mass of query tuples
    whose compressed indices are pairwise distinct (inclusion-exclusion
    over the compressed cells for k <= 3)."""
    k = len(query_probs)
    index_map = np.asarray(index_map)
    cell = [np.bincount(index_map, weights=p, minlength=ell) for p in query_probs]
    if k == 1:
        return 1.0
    if k == 2:
        return float(1.0 - (cell[0] * cell[1]).sum())
    if k == 3:
        pair = (
            (cell[0] * cell[1]).sum()
            + (cell[0] * cell[2]).sum()
            + (cell[1] * cell[2]).sum()
        )
        triple = (cell[0] * cell[1] * cell[2]).sum()
        return float(1.0 - pair + 2.0 * triple)
    raise ValueError("closed form implemented for k <= 3")


def _refuse_long(**lengths: int) -> None:
    """Raise before allocating an array longer than MAX_STATE_AMPLITUDES."""
    for name, length in lengths.items():
        if length > MAX_STATE_AMPLITUDES:
            raise ValueError(f"{name} must be at most {MAX_STATE_AMPLITUDES}")


def small_range_experiment(k: int, ell: int, domain_bits: int, trials: int,
                           rng: np.random.Generator) -> dict:
    """Mean overlap between full and distinct-index states over random
    index maps, for uniform queries; reports estimate, stderr, bound."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if k > 3:
        raise ValueError("closed form implemented for k <= 3")
    if domain_bits > MAX_QUBITS:
        raise ValueError(f"domain_bits must be at most {MAX_QUBITS}")
    _refuse_long(ell=ell, trials=trials)
    size = 1 << domain_bits
    uniform = [np.full(size, 1.0 / size) for _ in range(k)]
    overlaps = np.empty(trials)
    for i in range(trials):
        index_map = rng.integers(0, ell, size=size)
        overlaps[i] = small_range_overlap_mass(uniform, index_map, ell)
    mean = float(overlaps.mean())
    stderr = float(overlaps.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return {
        "k": k, "ell": ell, "domain_bits": domain_bits, "trials": trials,
        "mean_overlap": mean, "stderr": stderr, "bound": 1.0 - k * k / ell,
    }


def classical_srd_experiment(k: int, ell: int, domain: int, trials: int,
                             rng: np.random.Generator) -> dict:
    """Collision-finding distinguisher between a fresh random function and
    a range-compressed one, each queried at k distinct points."""
    if k > domain:
        raise ValueError("need k distinct query points in the domain")
    if trials < 1:
        raise ValueError("trials must be positive")
    _refuse_long(k=k, ell=ell)
    hits_full = 0
    hits_small = 0
    for _ in range(trials):
        full = rng.integers(0, domain, size=k)
        hits_full += len(set(full.tolist())) < k
        table = rng.integers(0, domain, size=ell)
        small = table[rng.integers(0, ell, size=k)]
        hits_small += len(set(small.tolist())) < k
    p_full = hits_full / trials
    p_small = hits_small / trials
    return {
        "k": k, "ell": ell, "domain": domain, "trials": trials,
        "p_collision_full": p_full, "p_collision_small": p_small,
        "advantage": abs(p_small - p_full),
        "envelope": C_SRD_DEFAULT * k**3 / ell,
        "stderr": math.sqrt(max(p_small * (1 - p_small), p_full * (1 - p_full))
                            / trials),
    }
