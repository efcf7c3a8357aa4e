"""Command-line front end: every experiment behind one entry point.

Usage model: ``unclonelab MODULE ACTION --flag value ...``. Each leaf
subcommand runs one experiment, prints (or writes) a report in the
schema described in report.py, and exits with

  0  run completed and every checked threshold held
  2  run completed but an acceptance threshold failed
  1  usage error: bad flags, bad config file, invalid parameters

Each experiment declares its flags once, in the ``@_experiment``
registry entry on its handler: name, type, default, choices, help and
least value. build_parser() generates every subcommand from that table,
and run() checks each config value against it before the handler runs,
so the command line, a ``--config FILE`` of ``key=value`` lines (read
as ``--key=value`` flags before the command line's, which win) and the
API meet one check. No environment variables are read.
Library modules load on first use: each handler imports the modules it
drives, so a run loads only its own experiment's stack, and the flag
tables name their choices literally (tests pin them to the library's).
Reruns with the same parameters and seed produce byte-identical report
bodies (the wall_time_s field aside), so report files can be diffed as
golden artifacts. Trials run sequentially as an ordered reduction;
any future parallel backend must preserve that ordering.
"""

from __future__ import annotations

import argparse
import math
import numbers
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .report import build_report, render
from .rng import make_rng

# statistical thresholds compare against +/- 3 standard errors; the
# epsilon absorbs float rounding when stderr is exactly zero
_TOL = 1e-12


class UsageError(ValueError):
    """Bad flags, bad config file, or invalid parameter values."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only -N and -N.N as numbers, not -1e-9 or -inf
        self._negative_number_matcher = re.compile(
            r"^-(\d*\.?\d+(e[-+]?\d+)?|inf)$", re.I)

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: name, parameters, and reproducibility data."""

    experiment: str
    params: dict
    seed: int | None
    trials: int | None = None
    out: str | None = None
    fmt: str = "json"


_Handler = Callable[[ExperimentConfig], tuple[dict, bool]]


class Param(NamedTuple):
    """One experiment flag, ``--name`` with underscores as dashes."""

    name: str
    type: Callable | None = None
    default: object = None
    choices: Sequence | None = None
    help: str | None = None
    low: float | None = None  # the least value an int or float allows


class Experiment(NamedTuple):
    """A registered experiment. A ``trials`` flag fills
    ExperimentConfig.trials, every other flag a key of its params."""

    handler: _Handler
    help: str
    flags: tuple[Param, ...]  # in --help order, --trials included
    params: tuple[str, ...]   # the keys run() expects in config.params
    trials: int | None        # default --trials; None: takes no trials


# experiment name -> its handler and flag table
EXPERIMENTS: dict[str, Experiment] = {}


def _experiment(name: str, help_: str, *flags: Param):
    def register(fn: _Handler) -> _Handler:
        params = tuple(f.name for f in flags if f.name != "trials")
        trials = next((f.default for f in flags if f.name == "trials"), None)
        EXPERIMENTS[name] = Experiment(fn, help_, flags, params, trials)
        return fn

    return register


def _hex_width(bits: int) -> int:
    return (bits + 3) // 4


# the library's choice tables, spelled out so that building the parser
# loads neither coin nor sde_ue; tests/test_imports.py pins them
_ATTACKS = ("measure-clone", "null", "zero-pad")  # sorted(coin.ATTACKS)
_GAMES = ("strong-anti-piracy", "strong-search", "identical-challenge",
          "multi-challenge-ue", "multi-copy-ue")  # sde_ue.games.GAMES
_ADVERSARIES = ("ghz-guessers", "honest-forwarder", "junk",
                "perfect-decryptors")  # sorted(sde_ue.games.ADVERSARIES)


@_experiment("coin demo", "counterfeit game demo",
             Param("variant", default="eqsup", choices=("prs", "eqsup")),
             Param("id_bits", int, 4, low=1),
             Param("mini_n", int, 8, low=2),
             Param("attack", default="zero-pad", choices=_ATTACKS),
             Param("coins", int, 1, help="coins issued per trial", low=0),
             Param("trials", int, 100, low=1))
def _coin_demo(cfg: ExperimentConfig) -> tuple[dict, bool]:
    from .coin import CoinParams, counterfeit_game

    p = cfg.params
    params = CoinParams(id_bits=p["id_bits"], mini_n=p["mini_n"])
    out = counterfeit_game(p["variant"], p["coins"], p["attack"],
                           make_rng(cfg.seed), params=params,
                           trials=cfg.trials)
    envelope = 2.0 ** (-p["mini_n"] / 2)
    # binomial sigma under the null rate; the sample stderr degenerates
    # to zero when every trial agrees
    sigma = (envelope * (1 - envelope) / cfg.trials) ** 0.5
    ok = True
    if p["attack"] == "zero-pad":
        ok = abs(out["success_rate"] - envelope) <= 3 * sigma + _TOL
    elif p["attack"] == "measure-clone":
        ok = out["success_rate"] <= envelope + 3 * sigma + _TOL
    out["envelope"] = envelope
    out["within_envelope"] = ok
    return out, ok


_SIG_FLAGS = (Param("n", int, 8, help="message bits", low=1),
              Param("tag_bits", int, 16, low=8),
              Param("digest_bits", int, 16, low=1))
_MESSAGE = Param("message", help="hex message (demo/sign default: sampled)")


def _detsig_message(p: dict, rng) -> int:
    limit = 1 << p["n"]
    if p["message"] is None:
        return int.from_bytes(rng.bytes(8), "big") % limit
    try:
        m = int(p["message"], 16)
    except ValueError:
        raise ValueError("--message must be a hex string") from None
    if not 0 <= m < limit:
        raise ValueError(f"message exceeds {p['n']} bits")
    return m


def _detsig_keys(cfg: ExperimentConfig):
    """(params, rng, vk, sk): the key setup every detsig leaf starts with."""
    from . import detsig
    from .primitives.pprf import MAX_OUTPUT_BITS

    p = cfg.params
    limit = MAX_OUTPUT_BITS - MAX_OUTPUT_BITS % 8  # whole tag bytes
    if p["tag_bits"] > limit:
        raise ValueError(f"--tag-bits must be at most {limit}: the tag PRF's "
                         f"output_bits must be in [1, {MAX_OUTPUT_BITS}]")
    rng = make_rng(cfg.seed)
    vk, sk = detsig.setup(p["n"], p["tag_bits"], rng,
                          digest_bits=p["digest_bits"])
    return p, rng, vk, sk


def _detsig_signed(cfg: ExperimentConfig):
    """(vk, message, signature bytes, sign report) for one signed message."""
    from . import detsig

    p, rng, vk, sk = _detsig_keys(cfg)
    m = _detsig_message(p, rng)
    sig = detsig.sign(sk, m).to_bytes()
    results = {
        "vk_root": vk.vk_root.hex(),
        "message": f"{m:0{_hex_width(p['n'])}x}",
        "signature": sig.hex(),
        "signature_len": len(sig),
    }
    return vk, m, sig, results


@_experiment("detsig demo", "signature demo", *_SIG_FLAGS, _MESSAGE)
def _detsig_demo(cfg: ExperimentConfig) -> tuple[dict, bool]:
    from . import detsig

    vk, m, sig, signed = _detsig_signed(cfg)
    verified = detsig.verify(vk, m, sig)
    return {"n": cfg.params["n"], **signed, "verified": verified}, verified


@_experiment("detsig sign", "signature sign", *_SIG_FLAGS, _MESSAGE)
def _detsig_sign(cfg: ExperimentConfig) -> tuple[dict, bool]:
    return _detsig_signed(cfg)[3], True


@_experiment("detsig verify", "signature verify", *_SIG_FLAGS, _MESSAGE,
             Param("signature", help="hex signature blob"))
def _detsig_verify(cfg: ExperimentConfig) -> tuple[dict, bool]:
    from . import detsig

    p, rng, vk, _ = _detsig_keys(cfg)
    if p["message"] is None or p["signature"] is None:
        raise ValueError("verify needs --message and --signature")
    m = _detsig_message(p, rng)
    try:
        blob = bytes.fromhex(p["signature"])
    except ValueError:
        raise ValueError("--signature must be a hex string of whole bytes"
                         ) from None
    verified = detsig.verify(vk, m, blob)
    results = {
        "vk_root": vk.vk_root.hex(),
        "message": f"{m:0{_hex_width(p['n'])}x}",
        "verified": verified,
    }
    return results, verified


# signature bytes one vectors report may hold; the report carries them
# as hex, so it is about twice this size
_VECTORS_MAX_BYTES = 1 << 22


@_experiment("detsig vectors", "signature vectors", *_SIG_FLAGS,
             Param("count", int, 8, help="number of signed messages", low=1))
def _detsig_vectors(cfg: ExperimentConfig) -> tuple[dict, bool]:
    from . import detsig

    p = cfg.params
    sig_len = detsig.signature_len(p["n"], p["digest_bits"], p["tag_bits"])
    if p["count"] * sig_len > _VECTORS_MAX_BYTES:
        raise ValueError(f"--count {p['count']} signatures of {sig_len} bytes "
                         f"exceed the {_VECTORS_MAX_BYTES}-byte vectors budget")
    _, _, vk, sk = _detsig_keys(cfg)
    width = _hex_width(p["n"])
    vectors = []
    for i in range(p["count"]):
        m = i % (1 << p["n"])
        sig = detsig.sign(sk, m)
        if not detsig.verify(vk, m, sig):
            return {"failed_message": f"{m:0{width}x}"}, False
        vectors.append({"message": f"{m:0{width}x}",
                        "signature": sig.to_bytes().hex()})
    results = {
        "n": p["n"],
        "tag_bits": p["tag_bits"],
        "digest_bits": p["digest_bits"],
        "vk_root": vk.vk_root.hex(),
        "signature_len": sig_len,
        "vectors": vectors,
    }
    return results, True


@_experiment("purify typedist", "exact type-state vs Haar-average distance",
             Param("n", int, 4, low=0), Param("t", int, 2, low=0))
def _purify_typedist(cfg: ExperimentConfig) -> tuple[dict, bool]:
    from . import purify

    p = cfg.params
    out = purify.type_vs_haar_distance(p["n"], p["t"])
    ok = out["td_estimate"] <= out["bound"] + _TOL
    out["within_bound"] = ok
    return out, ok


@_experiment("purify compiler", "purified-compiler equivalence gap",
             Param("n", int, 3, low=0), Param("t", int, 2, low=1),
             Param("payload_qubits", int, 1, low=0),
             Param("tol", float, 1e-9, low=0))
def _purify_compiler(cfg: ExperimentConfig) -> tuple[dict, bool]:
    from . import purify

    p = cfg.params
    q = p["payload_qubits"]

    def generator(z: bytes, rand: bytes):
        return purify.haar_sample(q, make_rng(int.from_bytes(rand, "big")))

    spec = purify.GenStateSpec(b"", 16, q, generator)
    out = purify.compiler_equivalence_check(spec, p["n"], p["t"],
                                            make_rng(cfg.seed))
    ok = out["exact_gap"] <= p["tol"]
    out["within_tolerance"] = ok
    return out, ok


@_experiment("prs demo", "phase-state digest", Param("n", int, 4, low=1))
def _prs_demo(cfg: ExperimentConfig) -> tuple[dict, bool]:
    from .hilbert.states import state_to_bytes
    from .primitives.hashes import sha256
    from .prs import prs_setup, prs_state

    p = cfg.params
    key = prs_setup(p["n"], make_rng(cfg.seed))
    state = prs_state(key)
    results = {
        "n": p["n"],
        "num_amplitudes": 1 << p["n"],
        "state_digest": sha256(state_to_bytes(state)).hex(),
    }
    return results, True


@_experiment("prs overlap", "small-range overlap experiment",
             Param("k", int, 2, low=1), Param("ell", int, 32, low=1),
             Param("domain_bits", int, 6, low=0),
             Param("trials", int, 200, low=1))
def _prs_overlap(cfg: ExperimentConfig) -> tuple[dict, bool]:
    from . import purify

    p = cfg.params
    out = purify.small_range_experiment(p["k"], p["ell"], p["domain_bits"],
                                        cfg.trials, make_rng(cfg.seed))
    ok = out["mean_overlap"] >= out["bound"] - 3 * out["stderr"] - _TOL
    out["within_bound"] = ok
    return out, ok


@_experiment("prs srd", "classical small-range distinguisher",
             Param("k", int, 2, low=0), Param("ell", int, 32, low=1),
             Param("domain", int, 4096, low=1),
             Param("trials", int, 500, low=1))
def _prs_srd(cfg: ExperimentConfig) -> tuple[dict, bool]:
    from . import purify

    p = cfg.params
    out = purify.classical_srd_experiment(p["k"], p["ell"], p["domain"],
                                          cfg.trials, make_rng(cfg.seed))
    ok = out["advantage"] <= out["envelope"] + 3 * out["stderr"] + _TOL
    out["within_envelope"] = ok
    return out, ok


@_experiment("mini demo", "mint, verify, and zero-pad forgery odds",
             Param("n", int, 8, low=2))
def _mini_demo(cfg: ExperimentConfig) -> tuple[dict, bool]:
    from . import minischeme

    p = cfg.params
    n = p["n"]
    rng = make_rng(cfg.seed)
    note = minischeme.mini_gen(n, rng.bytes(minischeme.randomness_len(n)))
    honest = minischeme.accept_probability(note.sn, note.note)
    kept, forged = minischeme.mini_counterfeit("zero-pad", note.note, rng)
    # the pair is a product state, so the joint acceptance factorizes
    joint = (minischeme.accept_probability(note.sn, kept)
             * minischeme.accept_probability(note.sn, forged))
    ok = abs(honest - 1.0) <= 1e-9
    results = {
        "n": n,
        "sn": note.sn.hex(),
        "honest_accept": honest,
        "zero_pad_joint_accept": joint,
        "counterfeit_bound": 2.0 ** (-n / 2),
    }
    return results, ok


@_experiment("sde demo", "round trips plus foreign reject",
             Param("message_bits", int, 4, low=1),
             Param("keys", int, 2, low=1))
def _sde_demo(cfg: ExperimentConfig) -> tuple[dict, bool]:
    from .primitives.hashes import sha256
    from .sde_ue.compiler import (SdeConfig, message_to_bytes, sde_ct_len,
                                  sde_dec, sde_enc, sde_kg, sde_setup)
    from .sde_ue.fail import FAIL

    p = cfg.params
    rng = make_rng(cfg.seed)
    sde = sde_setup(SdeConfig(message_bits=p["message_bits"]), rng)
    sks = [sde_kg(sde, sde.msk, rng) for _ in range(p["keys"])]
    failures = 0
    for value in range(1 << p["message_bits"]):
        ct = sde_enc(sde, sde.pk, value, rng)
        for sk in sks:
            if sde_dec(sde, sk, ct) != message_to_bytes(sde.config, value):
                failures += 1
    foreign_rejected = sde_dec(sde, sks[0],
                               bytes(sde_ct_len(sde.config))) is FAIL
    ok = failures == 0 and foreign_rejected
    results = {
        "message_bits": p["message_bits"],
        "keys": p["keys"],
        "pk_digest": sha256(sde.pk).hex(),
        "tags": [sk.tag.hex() for sk in sks],
        "messages_checked": 1 << p["message_bits"],
        "round_trip_failures": failures,
        "foreign_rejected": foreign_rejected,
        "ciphertext_len": sde_ct_len(sde.config),
    }
    return results, ok


@_experiment("ue demo", "round trips, determinism, ek=dk wrapper",
             Param("message_bits", int, 4, low=1))
def _ue_demo(cfg: ExperimentConfig) -> tuple[dict, bool]:
    from .sde_ue.compiler import SdeConfig, message_to_bytes, sde_setup
    from .sde_ue.ue import ue_dec, ue_ekdk_transform, ue_enc, ue_kg

    p = cfg.params
    rng = make_rng(cfg.seed)
    sde = sde_setup(SdeConfig(message_bits=p["message_bits"]), rng)
    keys = ue_kg(sde, rng)
    space = 1 << p["message_bits"]
    failures = 0
    for value in range(space):
        ct = ue_enc(sde, keys.ek, value, rng)
        if ue_dec(sde, keys.dk, ct) != message_to_bytes(sde.config, value):
            failures += 1
    shared = rng.bytes(32)
    a = ue_enc(sde, keys.ek, 1, kg_randomness=shared)
    b = ue_enc(sde, keys.ek, 1, kg_randomness=shared)
    determined = (a.masked == b.masked
                  and a.sde_sk.one_pk == b.sde_sk.one_pk)
    wrapper = ue_ekdk_transform(sde)
    ekp, dkp = wrapper.kg(rng)
    ekdk_failures = 0
    for value in range(space):
        wct = wrapper.enc(ekp, value, rng)
        if wrapper.dec(dkp, wct) != message_to_bytes(sde.config, value):
            ekdk_failures += 1
    ok = failures == 0 and determined and ekdk_failures == 0 and ekp == dkp
    results = {
        "message_bits": p["message_bits"],
        "messages_checked": space,
        "round_trip_failures": failures,
        "classically_determined": determined,
        "key_ct_len": len(keys.dk),
        "ekdk_keys_equal": ekp == dkp,
        "ekdk_round_trip_failures": ekdk_failures,
    }
    return results, ok


@_experiment("game run", "run one game with an adversary",
             Param("name", choices=_GAMES),
             Param("q", int, 2, low=1),
             Param("gamma", float, 0.1, low=math.ulp(0.0)),  # gamma > 0
             Param("adversary", default="honest-forwarder",
                   choices=_ADVERSARIES),
             Param("trials", int, 1, low=1),
             Param("samples", int, 8, help="challenge samples per test",
                   low=1))
def _game_run(cfg: ExperimentConfig) -> tuple[dict, bool]:
    from .sde_ue.games import run_game

    p = cfg.params
    out = run_game(p["name"], p["adversary"], p["q"], p["gamma"],
                   make_rng(cfg.seed), trials=cfg.trials,
                   challenge_samples=p["samples"])
    return out, True


@_experiment("vectors", "cross-module golden vectors")
def _vectors(cfg: ExperimentConfig) -> tuple[dict, bool]:
    from . import detsig, minischeme
    from .hilbert.states import state_to_bytes
    from .primitives.hashes import sha256
    from .primitives.pprf import pprf_eval, pprf_gen, pprf_key_to_bytes
    from .prs import prs_setup, prs_state
    from .sde_ue.onesde import one_setup

    rng = make_rng(cfg.seed)
    prf_key = pprf_gen(8, 128, rng)
    vk, sk = detsig.setup(4, 8, rng, digest_bits=8)
    sig = detsig.sign(sk, 5)
    prs_key = prs_setup(4, rng)
    note = minischeme.mini_gen(8, rng.bytes(2))
    one = one_setup(8, rng.bytes(32))
    results = {
        "pprf": {
            "key": pprf_key_to_bytes(prf_key).hex(),
            "evals": [pprf_eval(prf_key, x).hex() for x in range(4)],
        },
        "detsig": {
            "vk_root": vk.vk_root.hex(),
            "message": "5",
            "signature": sig.to_bytes().hex(),
        },
        "prs": {
            "n": 4,
            "state_digest": sha256(state_to_bytes(prs_state(prs_key))).hex(),
        },
        "mini": {"sn": note.sn.hex()},
        "sde": {"one_pk": one.one_pk.hex()},
    }
    return results, True


def _check(experiment: str, flag: Param, value) -> None:
    """Raise UsageError, naming the flag, unless flag allows value."""
    # a float flag takes an int too; a bool is an int, but never a count
    kind = {int: numbers.Integral, float: numbers.Real}.get(flag.type, str)
    if flag.choices is not None and value not in flag.choices:
        rule = f"one of {', '.join(flag.choices)}"
    elif value is None and flag.default is None:
        return  # an optional flag left unset
    elif isinstance(value, bool) or not isinstance(value, kind):
        rule = (flag.type or str).__name__
    elif flag.low is not None and not flag.low <= value < math.inf:
        rule = {0: "non-negative", 1: "positive", math.ulp(0.0): "positive"
                }.get(flag.low, f"at least {flag.low}")
        rule = f"finite and {rule}" if flag.type is float else rule
    else:
        return
    raise UsageError(f"{experiment}: --{flag.name.replace('_', '-')} must "
                     f"be {rule}, got {value!r}")


def run(config: ExperimentConfig) -> int:
    """Run one experiment and emit its report; returns the exit code."""
    spec = EXPERIMENTS.get(config.experiment)
    if spec is None:
        raise UsageError(f"unknown experiment {config.experiment!r}")
    if set(config.params) != set(spec.params):
        raise UsageError(
            f"{config.experiment} takes parameters "
            f"{sorted(spec.params)}, got {sorted(config.params)}"
        )
    if spec.trials is None and config.trials is not None:
        raise UsageError(f"{config.experiment} takes no trials")
    if spec.trials is not None and config.trials is None:
        raise UsageError(f"{config.experiment} needs trials")
    if config.seed is None:
        raise UsageError(f"{config.experiment} needs --seed")
    # unchecked (None): out and config
    values = dict(config.params, trials=config.trials, seed=config.seed,
                  format=config.fmt)
    for flag in spec.flags + _COMMON_FLAGS:
        _check(config.experiment, flag, values.get(flag.name))
    start = time.perf_counter()
    results, ok = spec.handler(config)
    wall = time.perf_counter() - start
    echo = dict(config.params)
    if config.trials is not None:
        echo["trials"] = config.trials
    report = build_report(config.experiment, echo, results, config.seed, wall)
    text = render(report, config.fmt)
    if config.out:
        Path(config.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 2


_COMMON_FLAGS = (
    Param("seed", int, help="experiment seed (required)", low=0),
    Param("out", help="report file path (default: stdout)"),
    Param("format", default="json", choices=("json", "csv"),
          help="report format"),
    Param("config", help="key=value file of flag defaults"),
)

_MODULE_HELP = {
    "coin": "unclonable coin experiments",
    "detsig": "deterministic signature tools",
    "purify": "purification and averaging checks",
    "prs": "phase-state experiments",
    "mini": "subspace banknote checks",
    "sde": "single-decryptor encryption",
    "ue": "unclonable encryption",
    "game": "security game harness",
}


def build_parser() -> _Parser:
    """The top parser with one leaf per experiment, generated from
    EXPERIMENTS; "module action" names nest, one-word names stay top-level."""
    parser = _Parser(prog="unclonelab",
                     description="experiment runner and report emitter")
    top = parser.add_subparsers(dest="_module", metavar="COMMAND")
    modules = {}
    for name, spec in EXPERIMENTS.items():
        module, _, action = name.partition(" ")
        owner = top
        if action:
            if module not in modules:
                modules[module] = top.add_parser(
                    module, help=_MODULE_HELP[module]
                ).add_subparsers(dest="_action", metavar="ACTION")
            owner = modules[module]
        leaf = owner.add_parser(action or module, help=spec.help)
        leaf.set_defaults(_experiment=name)
        for flag in spec.flags + _COMMON_FLAGS:
            leaf.add_argument("--" + flag.name.replace("_", "-"),
                              type=flag.type, default=flag.default,
                              choices=flag.choices, help=flag.help)
    return parser


def _load_config_file(path: str, experiment: str) -> list[str]:
    """The key=value lines of a config file as --key=value flags."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    except UnicodeDecodeError as exc:
        # unlike OSError, the decoder's message does not name the file
        raise UsageError(f"cannot read config file: {path}: {exc}") from None
    known = {f.name for f in EXPERIMENTS[experiment].flags + _COMMON_FLAGS}
    flags = []
    first_line: dict[str, int] = {}  # by flag name: n-x and n_x are one key
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        name = key.replace("-", "_")
        if name == "config" or name not in known:
            raise UsageError(f"unknown parameter {key!r} in config file")
        if name in first_line:
            raise UsageError(f"{path}:{lineno}: {key!r} repeats the key "
                             f"set on line {first_line[name]}")
        first_line[name] = lineno
        flags.append(f"--{name.replace('_', '-')}={value}")
    return flags


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        experiment=args._experiment,
        params={k: getattr(args, k) for k in EXPERIMENTS[args._experiment].params},
        seed=args.seed,
        trials=getattr(args, "trials", None),
        out=args.out,
        fmt=args.format,
    )


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        experiment = getattr(args, "_experiment", None)
        if experiment is None:
            raise UsageError("unclonelab: a subcommand is required "
                             "(see --help)")
        if args.config:
            # the file's flags go before the command line's, which win
            flags = _load_config_file(args.config, experiment)
            words = len(experiment.split())
            args = parser.parse_args(argv[:words] + flags + argv[words:])
        return run(_config_from_args(args))
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"unclonelab: {exc}", file=sys.stderr)
        return 1
