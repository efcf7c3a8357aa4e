"""The benchmark workloads.

Each workload imports the unclonelab modules it drives in ``load`` and
builds its fixtures in ``setup``; the two together are its set-up time. It
then runs ``step`` in a closed loop with one client: the next step starts
only when the previous one has returned. A step performs one or more operations, calls
``mark()`` as each operation begins, and returns one (latency seconds, ok)
pair per operation. ``finish`` runs checks that need the whole run and
returns how many operations they fail. Every input derives from the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from pathlib import Path

GOLDEN_SEED = 0
GOLDEN_VECTORS = Path(__file__).with_name("golden_vectors.json")

clock = time.perf_counter


class Workload:
    name: str
    tail_percentile: float  # see stats.py
    trace_steps: int  # steps of a traced run, fixed so its counts repeat

    def load(self) -> None:
        raise NotImplementedError

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def step(self, mark) -> list[tuple[float, bool]]:
        raise NotImplementedError

    def finish(self) -> int:
        return 0


class TamperSweep(Workload):
    """detsig.verify on signature bytes: mostly single-bit flips.

    Parameters are acceptance criterion 5's: n=16, tag 16, digest 24. Of the
    operations, 80% flip one bit of a signature at a seeded position, 10%
    verify an honest signature and 10% flip one message bit. Every flip must
    be rejected and every honest signature accepted.
    """

    name = "tamper-sweep"
    # the few hundred verifies that meet cold links sit above p99
    tail_percentile = 99.0
    n, tag_bits, digest_bits = 16, 16, 24
    batch = 32           # signatures signed in set-up
    chunk = 4096         # operations drawn from the rng at a time
    trace_steps = 20000

    def load(self):
        from unclonelab import detsig
        from unclonelab.rng import make_rng
        self.detsig, self.make_rng = detsig, make_rng

    def setup(self, seed: int) -> None:
        rng = self.make_rng(seed)
        self.vk, sk = self.detsig.setup(self.n, self.tag_bits, rng,
                                        digest_bits=self.digest_bits)
        picks = rng.choice(1 << self.n, size=self.batch, replace=False)
        self.messages = [int(m) for m in picks]
        self.blobs = [bytearray(self.detsig.sign(sk, m).to_bytes())
                      for m in self.messages]
        self.rng = rng
        self.queue: list = []

    def _refill(self) -> None:
        rng, size = self.rng, self.chunk
        kinds = rng.random(size)
        sig = rng.integers(0, self.batch, size)
        bit = rng.integers(0, 8 * len(self.blobs[0]), size)
        mbit = rng.integers(0, self.n, size)
        self.queue = list(zip(kinds.tolist(), sig.tolist(), bit.tolist(),
                              mbit.tolist()))
        self.queue.reverse()

    def step(self, mark):
        if not self.queue:
            self._refill()
        kind, j, bit, mbit = self.queue.pop()
        m, blob = self.messages[j], self.blobs[j]
        if kind < 0.8:
            pos, mask = bit >> 3, 1 << (bit & 7)
            blob[pos] ^= mask
            sig = bytes(blob)
            blob[pos] ^= mask
            want = False
        elif kind < 0.9:
            sig, want = bytes(blob), True
        else:
            sig, want = bytes(blob), False
            m ^= 1 << mbit
        verify, vk = self.detsig.verify, self.vk
        mark()
        t0 = clock()
        got = verify(vk, m, sig)
        t1 = clock()
        return [(t1 - t0, got is want)]


class CliSuite(Workload):
    """cli.run in process for every registered experiment, several passes.

    One operation is one report. Every run must exit 0 and the reports,
    with wall time stripped, must be byte-identical across passes. The
    vectors and coin demo reports run at GOLDEN_SEED; the results block of
    vectors must equal the golden copy stored beside this file, and in the
    coin demo the honest coin must verify with probability exactly 1.
    """

    name = "cli-suite"
    # purify typedist is 1 report in 15 and the slowest; p95 lies inside it
    tail_percentile = 95.0
    trace_steps = 2

    def load(self):
        from unclonelab import cli, detsig, report
        from unclonelab.rng import make_rng
        self.cli, self.detsig, self.report = cli, detsig, report
        self.make_rng = make_rng

    def plan(self, seed: int):
        """(experiment, params, trials, seed) for every experiment."""
        sig = {"n": 8, "tag_bits": 16, "digest_bits": 16}
        vk_seed = seed + 3
        _, sk = self.detsig.setup(8, 16, self.make_rng(vk_seed),
                                  digest_bits=16)
        signature = self.detsig.sign(sk, 0x2A).to_bytes().hex()
        return [
            # zero-pad submits the measured honest coin, so coin_verify's
            # accept path runs too; the report's two-sided 3-sigma envelope
            # check misses by chance for about 1 seed in 100, so like vectors
            # the demo runs at a fixed seed
            ("coin demo", {"variant": "eqsup", "id_bits": 4, "mini_n": 8,
                           "attack": "zero-pad", "coins": 1}, 30, GOLDEN_SEED),
            ("detsig demo", dict(sig, message="2a"), None, seed + 1),
            ("detsig sign", dict(sig, message="2a"), None, seed + 2),
            ("detsig verify", dict(sig, message="2a", signature=signature),
             None, vk_seed),
            ("detsig vectors", dict(sig, count=8), None, seed + 4),
            ("purify typedist", {"n": 6, "t": 2}, None, seed + 5),
            ("purify compiler", {"n": 3, "t": 2, "payload_qubits": 1,
                                 "tol": 1e-9}, None, seed + 6),
            ("prs demo", {"n": 8}, None, seed + 7),
            ("prs overlap", {"k": 2, "ell": 32, "domain_bits": 6}, 200,
             seed + 8),
            ("prs srd", {"k": 2, "ell": 32, "domain": 4096}, 500, seed + 9),
            ("mini demo", {"n": 8}, None, seed + 10),
            ("sde demo", {"message_bits": 4, "keys": 2}, None, seed + 11),
            ("ue demo", {"message_bits": 4}, None, seed + 12),
            ("game run", {"name": "strong-anti-piracy", "q": 2, "gamma": 0.1,
                          "adversary": "ghz-guessers", "samples": 8}, 4,
             seed + 13),
            ("vectors", {}, None, GOLDEN_SEED),
        ]

    def setup(self, seed: int) -> None:
        self.configs = [
            self.cli.ExperimentConfig(experiment=name, params=params,
                                      seed=exp_seed, trials=trials)
            for name, params, trials, exp_seed in self.plan(seed)
        ]
        missing = set(self.cli.EXPERIMENTS) - {c.experiment for c in self.configs}
        if missing:
            raise RuntimeError(f"no benchmark run for {sorted(missing)}")
        self.golden = json.loads(GOLDEN_VECTORS.read_text())
        self.first_pass: dict[str, str] = {}

    def step(self, mark):
        out = []
        for cfg in self.configs:
            buf = io.StringIO()
            mark()
            t0 = clock()
            with contextlib.redirect_stdout(buf):
                code = self.cli.run(cfg)
            t1 = clock()
            text = self.report.strip_wall_time(buf.getvalue())
            ok = code == 0 and self.first_pass.setdefault(cfg.experiment,
                                                          text) == text
            if cfg.experiment == "vectors":
                ok = ok and json.loads(text)["results"] == self.golden
            elif cfg.experiment == "coin demo":
                # the measured honest coin verifies with certainty
                ok = ok and json.loads(text)["results"][
                    "accept_probabilities"][0] == 1.0
            out.append((t1 - t0, ok))
        return out


WORKLOADS = {w.name: w for w in (TamperSweep, CliSuite)}
