"""Purification compiler endpoints and range-compression experiments.

The compiler turns independent samples of a generated mixed state into
copies of one indexed pure state: branch x carries a phase amplitude and
the payload generated from randomness at x. compiler_equivalence_check
draws one randomness transcript (a truly random phase table and function
table) and builds both endpoints from it: the t-fold product of that
state conditioned on t distinct labels, and the proof-side simulator's
symmetrized register state over those labels; it reports the exact
vector gap. The two routes share no construction: the product route
enumerates every ordered label tuple of the t-fold product state and
keeps those that realize the chosen label set, while the simulator route
permutes the (label, payload) pairs, so a simulator whose payloads do
not follow their labels, or whose orderings disagree in sign, shows a
gap of order one.

type_vs_haar_distance realizes the t-copy closeness bound between averaged
distinct type states and the Haar average, exactly by its closed form in
the symmetric multiset basis. The dense averages that check the closed
form live with the tests.

small_range_experiment and classical_srd_experiment quantify how much an
oracle with only ell distinct outputs can be told apart from a fresh one;
small_range_overlap_mass is the closed-form overlap between the uniform
query state under such an oracle and its restriction to distinct images;
the paper's small-range experiment queries uniformly, so no other query
distribution is taken.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hilbert.hybrid import HybridState
from .hilbert.states import MAX_STATE_AMPLITUDES, StateVector, tensor

C_SRD_DEFAULT = 1.0

MAX_PAYLOAD_QUBITS = 6
MAX_COPIES = 6
# type_vs_haar_distance's caps, checked before 1 << n: at n = 64, t = 1024
# the closed form's big-integer binomials take about 3 ms on a 2-vCPU VM,
# while n = 1024 overflows the float bound and t = 10^5 takes seconds
MAX_TYPEDIST_N = 64
MAX_TYPEDIST_T = 1024
# classical_srd_experiment draws from [0, domain) as int64
MAX_SRD_DOMAIN = 2**63


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
    # the conditional state equals eta times the transcript's phase product
    sign = float(np.prod([phases[x] for x in chosen]))
    signed = HybridState(eta.payload_qubits, [(label, sign * eta.branch_vector(label))
                                              for label in eta.labels()])
    gap = conditional.distance(signed)
    return {"n": n, "t": t, "chosen_labels": list(chosen), "exact_gap": gap}


def type_vs_haar_distance(n: int, t: int) -> dict:
    """Exact trace distance between the t-copy Haar average and the
    distinct-type average, by its closed form."""
    if n > MAX_TYPEDIST_N:
        raise ValueError(f"n must be at most {MAX_TYPEDIST_N}")
    if t > MAX_TYPEDIST_T:
        raise ValueError(f"t must be at most {MAX_TYPEDIST_T}")
    d = 1 << n
    if d < t:
        raise ValueError("need at least t distinct basis labels")
    # in the multiset basis the Haar average is I/D (D = C(d+t-1, t)) and
    # the type average puts 1/C(d, t) on each distinct multiset, so the
    # trace distance is 1 - C(d, t)/D
    dim = math.comb(d + t - 1, t)
    td = (dim - math.comb(d, t)) / dim
    return {"n": n, "t": t, "td_estimate": td, "bound": 4.0 * t * t / d,
            "method": "exact"}


def small_range_overlap_mass(k: int, index_map: np.ndarray, ell: int) -> float:
    """Fast route to the same overlap for k uniform queries: the probability
    that k independent uniform inputs land in pairwise-distinct compressed
    cells (inclusion-exclusion over the cells' shares c, k <= 3)."""
    cell = np.bincount(index_map, minlength=ell) / len(index_map)
    if k == 1:
        return 1.0
    if k == 2:
        return float(1.0 - (cell * cell).sum())
    if k == 3:
        return float(1.0 - 3.0 * (cell * cell).sum()
                     + 2.0 * (cell * cell * cell).sum())
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
    max_bits = MAX_STATE_AMPLITUDES.bit_length() - 1
    if domain_bits > max_bits:
        raise ValueError(f"domain_bits must be at most {max_bits}")
    _refuse_long(ell=ell, trials=trials)
    size = 1 << domain_bits
    overlaps = np.empty(trials)
    for i in range(trials):
        index_map = rng.integers(0, ell, size=size)
        overlaps[i] = small_range_overlap_mass(k, index_map, ell)
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
    if domain > MAX_SRD_DOMAIN:
        raise ValueError(f"domain must be at most 2**63 = {MAX_SRD_DOMAIN}")
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
