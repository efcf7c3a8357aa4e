"""Mutant catalog and runner: each entry deletes one check or breaks one
invariant by an exact source substitution, and names the tests that must
fail on it.

    python tests/mutants.py

copies the repository, without caches, to a temporary directory, applies
each mutant in turn, runs that mutant's killer tests with ``pytest -x -q``
and prints KILLED or SURVIVED with the time taken. A mutant is killed only
when its killers run and fail (pytest exit 1); any other pytest exit, such as
a collection error, is a runner error. It exits 1 if any mutant survives and
2 on a runner error. It is not part of tier-1; ``tests/test_mutants.py``
checks there that every entry still applies and every killer exists.

A change that rewrites a mutated line updates its entry and re-states the
killer; a change that deletes a runtime check or a branch adds an entry.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    stands_for: str  # the invariant or check the substitution breaks
    path: str        # relative to the repository root
    old: str         # occurs exactly once in path
    new: str
    killers: tuple[str, ...]  # pytest node ids, relative to the root


CATALOG = (
    Mutant(
        "payload-phase",
        "measure_payload keeps each branch's complex amplitude at the outcome",
        "src/unclonelab/hilbert/hybrid.py",
        "new[outcome] = vec[outcome]",
        "new[outcome] = abs(vec[outcome])",
        ("tests/test_hilbert_hybrid.py::test_measure_payload_collapse",),
    ),
    Mutant(
        "born-floor",
        "Born weights below PROB_FLOOR are exactly impossible",
        "src/unclonelab/hilbert/states.py",
        "probs = np.where(probs < PROB_FLOOR, 0.0, probs)",
        "probs = np.where(probs < 0.0, 0.0, probs)",
        ("tests/test_hilbert_states.py::test_born_sample_weights_below_floor_are_exactly_zero",),
    ),
    Mutant(
        "store-read-after-break",
        "verify reads its link store only while every level so far matched "
        "it or was stored: a stored link implies its parent key only then",
        "src/unclonelab/detsig.py",
        "hit = store.get(node) if chained else None",
        "hit = store.get(node)",
        ("tests/test_detsig.py::TestVerifiedLinkStore::test_link_under_replaced_parent_key_rejected",),
    ),
    Mutant(
        "store-write-once",
        "a stored link is never replaced",
        "src/unclonelab/detsig.py",
        "chained = chained and hit is None and len(store) < STORE_CAP",
        "chained = chained and len(store) < STORE_CAP",
        ("tests/test_detsig.py::TestStoreRule",),
    ),
    Mutant(
        "store-write-chained",
        "a link is stored only while every level above it matched its stored "
        "link or was stored by the same call",
        "src/unclonelab/detsig.py",
        "chained = chained and hit is None and len(store) < STORE_CAP",
        "chained = hit is None and len(store) < STORE_CAP",
        ("tests/test_detsig.py::TestStoreRule",),
    ),
    Mutant(
        "store-miss-rejects",
        "a link that differs from the stored one at its node may still be "
        "valid: a flip can keep the truncated digest",
        "src/unclonelab/detsig.py",
        "            if not ots_verify(parent, sig[off:split], sig[split:end],",
        "            if hit is not None or not ots_verify(parent, sig[off:split], sig[split:end],",
        ("tests/test_detsig.py::TestSeed2KeptDigestFlips",),
    ),
    Mutant(
        "departure-index",
        "on a stored link whose message the blob repeats, ots_verify first "
        "checks the preimage holding the highest set bit of the preimages' XOR",
        "src/unclonelab/detsig.py",
        "first = (sig_len - (gap.bit_length() + 7) // 8) // 32",
        "first = (sig_len - gap.bit_length() // 8) // 32",
        ("tests/test_detsig.py::TestVerifyWork::test_first_preimage_matches_binary_search_reference",),
    ),
    Mutant(
        "object-parse",
        "verify accepts a TreeSignature only as the parse of its own bytes",
        "src/unclonelab/detsig.py",
        "if signature_from_bytes(blob, n, vk.digest_bits, vk.tag_bits) != sig:",
        "if signature_from_bytes(blob, n, vk.digest_bits, vk.tag_bits) is None:",
        ("tests/test_detsig.py::TestSignVerify::test_mis_sized_fields_rejected_despite_valid_joined_length",),
    ),
    Mutant(
        "signer-cap",
        "the signer's keypair store stops growing at STORE_CAP",
        "src/unclonelab/detsig.py",
        "        if len(sk._cache) < STORE_CAP:",
        "        if True:",
        ("tests/test_coin.py::TestVerify::test_one_cap_bounds_every_store",),
    ),
    Mutant(
        "ots-extra-sha256",
        "the verifier's hash count: one sha256 for the message digest",
        "src/unclonelab/primitives/ots.py",
        '    # stop at the first preimage that does not hash to its vk entry\n'
        '    digest = int.from_bytes(sha256(message), "big")',
        '    # stop at the first preimage that does not hash to its vk entry\n'
        '    digest = int.from_bytes(sha256(message), "big") + 0 * len(sha256(message))',
        ("tests/test_detsig.py::TestVerifyWork",),
    ),
    Mutant(
        "ots-skip-last",
        "ots_verify checks every one of the L preimages",
        "src/unclonelab/primitives/ots.py",
        "for i in range(first, first + L):",
        "for i in range(first, first + L - 1):",
        ("tests/test_ots.py",),
    ),
    Mutant(
        "pprf-copath-seed",
        "a punctured key agrees with the full key off the punctured set",
        "src/unclonelab/primitives/pprf.py",
        "copath[(depth, child)] = prg_child(seed, bit)",
        "copath[(depth, child)] = prg_child(seed, 1 - bit)",
        ("tests/test_pprf.py::TestPuncturedCorrectness::test_exhaustive_l1_4_all_sets_up_to_3",),
    ),
    Mutant(
        "measure-collapse",
        "states.measure collapses onto the observed outcome",
        "src/unclonelab/hilbert/states.py",
        "amps = np.zeros_like(cube)",
        "amps = np.array(cube)",
        ("tests/test_hilbert_states.py::test_measure_collapses_entangled_pair",),
    ),
    Mutant(
        "measure-run-check",
        "states.measure takes only an ascending run of the state's qubits",
        "src/unclonelab/hilbert/states.py",
        "if qubits != list(range(start, stop)) or not 0 <= start <= stop <= state.num_qubits:",
        "if not 0 <= start <= stop <= state.num_qubits:",
        ("tests/test_hilbert_states.py::test_measure_takes_an_ascending_run_within_the_state",),
    ),
    Mutant(
        "coin-honest-accept",
        "coin_verify accepts an honest coin with bit 1",
        "src/unclonelab/coin.py",
        "bit = 1 if prob >= 1.0 - 1e-9 else 0",
        "bit = 1 if prob >= 1.0 + 1e-9 else 0",
        ("tests/test_coin.py::TestVerify::test_honest_coin_accepted_exactly",),
    ),
    Mutant(
        "cluster-tolerance",
        "eigensolver values within EIG_ATOL form one eigenvalue",
        "src/unclonelab/hilbert/povm.py",
        "eigs[start] - eigs[i] > EIG_ATOL",
        "eigs[start] - eigs[i] > 0.0",
        ("tests/test_hilbert_povm.py::test_projimp_of_near_tolerance_clusters",),
    ),
    Mutant(
        "threshold-compare",
        "a threshold test passes when the eigenvalue equals the threshold",
        "src/unclonelab/hilbert/povm.py",
        "bit = int(pi.eigenvalues[outcome] >= threshold)",
        "bit = int(pi.eigenvalues[outcome] > threshold)",
        ("tests/test_sde_ue.py::TestGameOutcomes::test_perfect_decryptors_distinguishing",),
    ),
    Mutant(
        "threshold-repeatable",
        "a threshold test leaves the state in the observed eigenspace, so "
        "a second test returns the same bit",
        "src/unclonelab/hilbert/povm.py",
        "return bit, branch / np.linalg.norm(branch)",
        "return bit, vec",
        ("tests/test_hilbert_povm.py::test_threshold_repeatable_on_post_state",),
    ),
    Mutant(
        "threshold-norm",
        "a threshold test's post-state is normalized",
        "src/unclonelab/hilbert/povm.py",
        "return bit, branch / np.linalg.norm(branch)",
        "return bit, branch",
        ("tests/test_hilbert_povm.py::test_register_projective_measure_born",),
    ),
    Mutant(
        "register-norm-check",
        "threshold_measure_register refuses a joint vector whose cluster "
        "weights do not sum to 1",
        "src/unclonelab/hilbert/povm.py",
        "if abs(weights.sum() - 1.0) > 1e-7:",
        "if False:",
        ("tests/test_hilbert_povm.py::test_register_threshold_checks_its_input",),
    ),
    Mutant(
        "block-coefficients",
        "a cluster's coefficients are its block's conjugate transpose "
        "applied to the register, not its plain transpose",
        "src/unclonelab/hilbert/povm.py",
        "coefs = [b.conj().T @ cube for b in pi.bases]",
        "coefs = [b.T @ cube for b in pi.bases]",
        ("tests/test_measurement_kernels.py::test_register_threshold_matches_dense_projectors",),
    ),
    Mutant(
        "register-dimension-check",
        "threshold_measure_register refuses a POVM whose dimension is not "
        "the register's",
        "src/unclonelab/hilbert/povm.py",
        "if povm.dim != dims[idx]:",
        "if False:",
        ("tests/test_hilbert_povm.py::test_register_threshold_checks_the_register_dimension",),
    ),
    Mutant(
        "register-bit-order",
        "a run's qubits are counted from the most significant end of a "
        "basis index",
        "src/unclonelab/hilbert/states.py",
        "cube = state.amplitudes.reshape(1 << start, 1 << len(qubits), -1)",
        "cube = state.amplitudes.reshape(-1, 1 << len(qubits), 1 << start)",
        ("tests/test_measurement_kernels.py::test_register_basis_measurement_matches_dense_projectors",),
    ),
    Mutant(
        "zero-pad-payload",
        "the zero-pad attack pads with the all-zero payload",
        "src/unclonelab/coin.py",
        "(observed, 1.0, basis_state(vk.mini_n, 0))",
        "(observed, 1.0, basis_state(vk.mini_n, 1))",
        ("tests/test_coin.py::TestCounterfeitGame::test_zero_pad_rate_near_envelope",),
    ),
    Mutant(
        "coin-store-rejects",
        "the coin verify key never stores a rejected label",
        "src/unclonelab/coin.py",
        "    if not detsig.verify(vk.vk, _sn_message(sn), sig):\n"
        "        return None\n",
        "    if not detsig.verify(vk.vk, _sn_message(sn), sig):\n"
        "        vk._accepted[key] = None\n"
        "        return None\n",
        ("tests/test_coin.py::TestVerify::test_only_accepted_signatures_remembered",),
    ),
    Mutant(
        "distance-label-union",
        "HybridState.distance counts every label of either state, so a "
        "branch only the other state holds adds its norm",
        "src/unclonelab/hilbert/hybrid.py",
        "for label in self._branches | other._branches)",
        "for label in self._branches)",
        ("tests/test_hilbert_hybrid.py::test_distance_and_allclose",),
    ),
    Mutant(
        "hybrid-floor",
        "a HybridState drops branches whose norm is below PROB_FLOOR",
        "src/unclonelab/hilbert/hybrid.py",
        "if not np.linalg.norm(vec) < PROB_FLOOR:",
        "if not np.linalg.norm(vec) < 0.0:",
        ("tests/test_hilbert_hybrid.py::test_merge_cancellation_drops_branch",),
    ),
    Mutant(
        "mini-reject-norm",
        "mini_verify renormalizes a rejected post-state by 1 - p",
        "src/unclonelab/minischeme.py",
        "post /= np.sqrt(max(1 - p, 1e-300))",
        "post /= np.sqrt(max(p, 1e-300))",
        ("tests/test_minischeme.py::TestVerify::test_zero_state_empirical_rate",),
    ),
    Mutant(
        "srd-stderr",
        "the SRD stderr takes the larger of the two binomial variances",
        "src/unclonelab/purify.py",
        '"stderr": math.sqrt(max(p_small * (1 - p_small), p_full * (1 - p_full))',
        '"stderr": math.sqrt(min(p_small * (1 - p_small), p_full * (1 - p_full))',
        ("tests/test_report_digests.py",),
    ),
    Mutant(
        "one-dec-mac",
        "one_dec returns None on bytes whose MAC fails, not their plaintext",
        "src/unclonelab/sde_ue/onesde.py",
        "    if not hmac.compare_digest(mac, want):\n"
        "        return None\n"
        '    stream = expand_stream(sha256(b"onectr" + token + r), len(body))',
        '    stream = expand_stream(sha256(b"onectr" + token + r), len(body))',
        ("tests/test_sde_ue.py::TestMockOne::test_foreign_ciphertext_fails",),
    ),
    Mutant(
        "sde-dec-bottom",
        "sde_dec's failure symbol is None, not an empty message",
        "src/unclonelab/sde_ue/compiler.py",
        "return None if inner is None else one_dec(sk.one_sk, inner)",
        'return b"" if inner is None else one_dec(sk.one_sk, inner)',
        ("tests/test_sde_ue.py::TestSde::test_foreign_ciphertexts_fail",),
    ),
    Mutant(
        "one-setup-length",
        "one_setup, and so sde_kg, refuses randomness under "
        "MIN_SETUP_RANDOMNESS bytes",
        "src/unclonelab/sde_ue/onesde.py",
        "if len(randomness) < MIN_SETUP_RANDOMNESS:",
        "if False:",
        ("tests/test_sde_ue.py::TestMockOne::test_parameter_errors",),
    ),
    Mutant(
        "strip-comma",
        "strip_wall_time removes the comma before a JSON wall-time entry",
        "src/unclonelab/report.py",
        '        if text[cut - 1:cut] == ",":\n'
        "            cut -= 1\n",
        "",
        ("tests/test_cli.py::TestReportModule::test_strip_wall_time_matches_regex_reference",),
    ),
)


def _pytest(tree: Path, tests) -> int:
    """pytest's exit code for tests run on tree: 0 all passed, 1 some
    failed, anything else the tests did not run."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *tests], cwd=tree, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def run(mutant: Mutant, tree: Path) -> int:
    """pytest's exit code for mutant's killers on tree with mutant applied;
    tree's file is restored afterwards."""
    path = tree / mutant.path
    source = path.read_text()
    assert source.count(mutant.old) == 1, f"{mutant.name}: old must occur once"
    path.write_text(source.replace(mutant.old, mutant.new))
    try:
        return _pytest(tree, mutant.killers)
    finally:
        path.write_text(source)


def main() -> int:
    survived = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench",
            "*.pyc", "*.egg-info"))
        # a killer that fails unmutated would count every mutant as killed
        killers = dict.fromkeys(k for m in CATALOG for k in m.killers)
        code = _pytest(tree, killers)
        if code != 0:
            print(f"the killer tests exit {code} on the unmutated tree",
                  file=sys.stderr)
            return 2
        for mutant in CATALOG:
            start = time.perf_counter()
            code = run(mutant, tree)
            if code not in (0, 1):
                print(f"{mutant.name}: the killer tests exit {code} without "
                      "running to a verdict", file=sys.stderr)
                return 2
            killed = code == 1
            survived += not killed
            print(f"{'KILLED' if killed else 'SURVIVED':8} {mutant.name:24} "
                  f"{time.perf_counter() - start:6.1f} s", flush=True)
    print(f"{len(CATALOG) - survived} of {len(CATALOG)} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
