"""Shared construction helpers for tests, and the reference versions of
library routines that the library now computes another way."""

import functools
import itertools
import math
import re
import struct
import tracemalloc
from dataclasses import dataclass

import numpy as np

from unclonelab.hilbert.hybrid import HybridState
from unclonelab.hilbert.povm import BinaryPovm, projective_implementation
from unclonelab.hilbert.states import StateVector, born_sample, tensor
from unclonelab.primitives.hashes import TAG_OTS, sha256


def random_hermitian(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def random_binary_povm(dim, rng):
    """Random Hermitian rescaled so its spectrum spans a sub-interval of [0, 1]."""
    h = random_hermitian(dim, rng)
    eigs = np.linalg.eigvalsh(h)
    lo, hi = eigs[0], eigs[-1]
    span = hi - lo if hi > lo else 1.0
    scale = rng.uniform(0.5, 1.0)
    shift = rng.uniform(0.0, 1.0 - scale)
    return BinaryPovm((h - lo * np.eye(dim)) / span * scale + shift * np.eye(dim))


def random_projector(dim, rank, rng):
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    q, _ = np.linalg.qr(a)
    q = q[:, :rank]
    return q @ q.conj().T


def ots_rows(blob, L):
    """Split a one-time key blob back into its 2 x L table of 32-byte entries."""
    return tuple(tuple(blob[32 * (b * L + i) : 32 * (b * L + i + 1)]
                       for i in range(L)) for b in (0, 1))


def peak_traced_bytes(fn, *args):
    """Call fn(*args) under tracemalloc; return (result, peak traced bytes)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# dense multiset-basis averages that check purify's closed-form distance
MAX_SYM_DIM = 4096


def _sym_dim(n, t):
    """Dimension of the t-copy symmetric subspace of n qubits, under the cap."""
    dim = math.comb((1 << n) + t - 1, t)
    if dim > MAX_SYM_DIM:
        raise ValueError("symmetric subspace dimension over cap")
    return dim


def haar_average_exact(n, t):
    """Haar t-copy average in the symmetric multiset basis: I / dim."""
    dim = _sym_dim(n, t)
    return np.eye(dim) / dim, dim


def type_average_exact(n, t):
    """Average of (|type_S><type_S|) over distinct t-subsets S, written in
    the same multiset basis: each distinct multiset IS a type state."""
    d = 1 << n
    dim = _sym_dim(n, t)
    rho = np.zeros((dim, dim))
    count = math.comb(d, t)
    for idx, multiset in enumerate(itertools.combinations_with_replacement(range(d), t)):
        if len(set(multiset)) == t:
            rho[idx, idx] = 1.0 / count
    return rho


def accept_operator(space):
    """Dense matrix of the banknote verification: project, rotate, project
    on the dual, rotate back. Equals |A><A| up to float error."""
    dim = 1 << space.n
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    had = np.array([[1.0]])
    for _ in range(space.n):
        had = np.kron(had, h)
    pa = np.zeros((dim, dim))
    pa[space.elements(), space.elements()] = 1.0
    pd = np.zeros((dim, dim))
    pd[space.dual_elements(), space.dual_elements()] = 1.0
    return pa @ had @ pd @ had @ pa


def first_departure(sig: bytes, off: int, link: bytes, msg_len: int,
                    L: int) -> int:
    """The first preimage at which sig, read from off, departs from a stored
    link whose message (its first msg_len bytes) sig repeats; 0 if sig's
    message differs. A binary search of prefix compares: the reference for
    the preimage that detsig.verify finds by one XOR."""
    link = memoryview(link)
    if not sig.startswith(link[:msg_len], off):
        return 0
    lo, hi = 0, L  # sig repeats the link's first lo preimages, not its first hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if sig.startswith(link[: msg_len + 32 * mid], off):
            lo = mid
        else:
            hi = mid
    return lo


def ots_preimage(seed: bytes, bit: int, position: int) -> bytes:
    """Secret preimage (bit, position) of a seed-derived one-time keypair."""
    return sha256(TAG_OTS + seed + bytes([bit]) + struct.pack("<H", position))


def mixture_povm(dist):
    """POVM element of a mixture of projective tests: sum_i p_i Pi_i.

    The dense reference for games._challenge_povm, which sums the same
    terms in the same order as a diagonal."""
    if not dist:
        raise ValueError("mixture must contain at least one component")
    probs = np.array([p for p, _ in dist], dtype=float)
    if probs.min() < 0:
        raise ValueError("mixture probabilities must be non-negative")
    if abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError(f"mixture probabilities sum to {probs.sum()}, not 1")
    dim = np.asarray(dist[0][1]).shape[0]
    acc = np.zeros((dim, dim), dtype=np.complex128)
    for p, proj in dist:
        proj = np.asarray(proj, dtype=np.complex128)
        if (proj.shape != (dim, dim)
                or not np.allclose(proj, proj.conj().T, atol=1e-8, rtol=0.0)
                or not np.allclose(proj @ proj, proj, atol=1e-8, rtol=0.0)):
            raise ValueError("mixture component is not a projector")
        acc += p * proj
    return BinaryPovm(acc)


# -- per-projector measurements of a joint state: the dense references for
# the register's eigenvector-block coefficients and the qubit-run cube view


def apply_op_to_register(vec, op, dims, idx):
    """(I (x) op (x) I) applied to a joint vector over registers of dims."""
    if math.prod(dims) != vec.shape[0]:
        raise ValueError("register dims do not factor the joint dimension")
    before, after = math.prod(dims[:idx]), math.prod(dims[idx + 1:])
    cube = vec.reshape(before, dims[idx], after)
    return np.einsum("ij,ajb->aib", op, cube).reshape(-1)


def measure_register_projective(vec, dims, idx, projectors, rng):
    """Projectively measure register idx of a joint state by applying every
    projector to the joint vector; returns (outcome, collapsed vector)."""
    probs = np.array([
        float(np.linalg.norm(apply_op_to_register(vec, proj, dims, idx)) ** 2)
        for proj in projectors
    ])
    if abs(probs.sum() - 1.0) > 1e-7:
        raise ValueError("projector family does not resolve the register identity")
    outcome = born_sample(probs, rng)
    branch = apply_op_to_register(vec, projectors[outcome], dims, idx)
    return outcome, branch / np.linalg.norm(branch)


def threshold_measure_register_dense(povm, threshold, vec, dims, idx, rng):
    """povm.threshold_measure_register with one dense projector
    Pi_k = B_k B_k^dagger per eigenspace and one joint-vector pass per
    projector to weigh it."""
    pi = projective_implementation(povm)
    projectors = [b @ b.conj().T for b in pi.bases]
    outcome, post = measure_register_projective(vec, dims, idx, projectors, rng)
    return int(pi.eigenvalues[outcome] >= threshold), post


def measure_register_basis_dense(vec, dims, idx, rng):
    """Computational-basis measurement of register idx by dims[idx] dense
    diagonal projectors on the joint vector: the reference for
    games._measure_register_basis, which measures the register's qubits."""
    projectors = [np.diag(row) for row in np.eye(dims[idx])]
    return measure_register_projective(vec, dims, idx, projectors, rng)


def measure_bits_dense(state, qubits, rng):
    """states.measure by gathering the listed qubits' bits of every basis
    index, MSB first, and summing Born weights per outcome with bincount."""
    indices = np.arange(state.dim, dtype=np.int64)
    outcomes = np.zeros_like(indices)
    for q in qubits:
        outcomes = (outcomes << 1) | ((indices >> (state.num_qubits - 1 - q)) & 1)
    weights = np.abs(state.amplitudes) ** 2
    outcome = born_sample(np.bincount(outcomes, weights=weights,
                                      minlength=1 << len(qubits)), rng)
    amps = np.where(outcomes == outcome, state.amplitudes, 0.0)
    return outcome, StateVector(state.num_qubits, amps / np.linalg.norm(amps))


# -- swap test: the exact accept probability, an overlap oracle for tests ----


def swap_test(a: StateVector, b: StateVector) -> float:
    """Exact accept probability of the swap test: (1 + |<a|b>|^2) / 2.

    The overlap is normalized by the states' own squared norms so that the
    identical-state case yields exactly 1.0 in floating point.
    """
    if a.num_qubits != b.num_qubits:
        raise ValueError("states live on different qubit counts")
    num = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
    den = np.vdot(a.amplitudes, a.amplitudes).real * np.vdot(b.amplitudes, b.amplitudes).real
    return 0.5 + 0.5 * (num / den)


# -- HybridState views built from labels() and branch_vector() ----------------


def _canonical_phase(vec):
    norm = np.linalg.norm(vec)
    for comp in vec:
        if abs(comp) > 1e-12 * norm:
            return comp / abs(comp)
    return 1.0 + 0.0j


def branch_items(state):
    """(label, amplitude, unit payload) per branch in label order; the
    amplitude is the branch norm times the phase of its first significant
    component, and the payload is None when there is no payload register."""
    out = []
    for label in state.labels():
        vec = state.branch_vector(label)
        amp = _canonical_phase(vec) * float(np.linalg.norm(vec))
        payload = None
        if state.payload_qubits > 0:
            payload = StateVector(state.payload_qubits, vec / amp)
        out.append((label, complex(amp), payload))
    return out


def canonical_bytes(state):
    """Deterministic serialization for bit-equality checks.

    Branches in sorted label order; each branch is the label encoding
    followed by the raw f64 (re, im) pairs of its unnormalized vector.
    """
    labels = state.labels()
    parts = [struct.pack("<II", state.payload_qubits, len(labels))]
    for label in labels:
        parts.append(struct.pack("<I", len(label)))
        for comp in label:
            if isinstance(comp, int):
                parts.append(b"i" + struct.pack("<q", comp))
            elif isinstance(comp, bytes):
                parts.append(b"b" + struct.pack("<I", len(comp)) + comp)
            else:
                enc = comp.encode()
                parts.append(b"s" + struct.pack("<I", len(enc)) + enc)
        for amp in state.branch_vector(label):
            parts.append(struct.pack("<dd", amp.real, amp.imag))
    return b"".join(parts)


def map_labels(state, fn):
    """Relabel every branch by fn; colliding images accumulate."""
    return HybridState(state.payload_qubits,
                       [(fn(label), state.branch_vector(label))
                        for label in state.labels()])


# -- the full range-compressed query state, checked against its closed form ---


@dataclass(frozen=True)
class SmallRangeParams:
    k: int
    range_size: int
    accuracy: float
    domain_bits: int


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


# report.strip_wall_time's reference: the JSON entry with the newline that
# opens it, the whitespace after and an optional comma before, then a CSV
# row that starts a line, each pass a regex without a literal prefix
_WALL_JSON = re.compile(r',?\n\s*"wall_time_s": [0-9eE+.-]+')
_WALL_CSV = re.compile(r"^wall_time_s,[^\n]*\n?", re.MULTILINE)


def strip_wall_time_regex(text: str) -> str:
    return _WALL_CSV.sub("", _WALL_JSON.sub("", text))
