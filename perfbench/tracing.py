"""In-memory span tracer installed around public functions of unclonelab.

A wrapper replaces a function at every binding the package's callers look
it up through: each loaded ``unclonelab.*`` module attribute that is the
function object, or the class attribute for a method. Each call of a
wrapped function records one span (name, start, end, parent span, operation
id). SHA-256 is called too often for a span per call, so its bindings only
count. Calls that hash through ``hashlib`` or ``hmac`` directly bypass that
choke point; they are counted separately through proxies of those modules.

Self time is a span's duration minus the part of it that its child spans
cover. Per-operation metrics use only spans recorded while an operation was
running (operation id set), so set-up work is left out.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter
from pathlib import Path

# (metric name, defining module, attribute path): one span per call
SPANS = (
    ("primitives.pprf_eval", "unclonelab.primitives.pprf", "pprf_eval"),
    ("primitives.ots_setup_from_seed", "unclonelab.primitives.ots", "ots_setup_from_seed"),
    ("primitives.ots_sign", "unclonelab.primitives.ots", "ots_sign"),
    ("primitives.ots_verify", "unclonelab.primitives.ots", "ots_verify"),
    ("detsig.setup", "unclonelab.detsig", "setup"),
    ("detsig.sign", "unclonelab.detsig", "sign"),
    ("detsig.verify", "unclonelab.detsig", "verify"),
    ("detsig.signature_from_bytes", "unclonelab.detsig", "signature_from_bytes"),
    ("coin.coin_setup", "unclonelab.coin", "coin_setup"),
    ("coin.gen_banknote", "unclonelab.coin", "gen_banknote"),
    ("coin.coin_verify", "unclonelab.coin", "coin_verify"),
    ("minischeme.mini_gen", "unclonelab.minischeme", "mini_gen"),
    ("minischeme.subspace_from_sn", "unclonelab.minischeme", "subspace_from_sn"),
    ("prs.prs_amplitudes", "unclonelab.prs", "prs_amplitudes"),
    ("hilbert.HybridState.measure_labels", "unclonelab.hilbert.hybrid", "HybridState.measure_labels"),
    ("hilbert.HybridState.from_terms", "unclonelab.hilbert.hybrid", "HybridState.from_terms"),
    ("hilbert.measure", "unclonelab.hilbert", "measure"),
    ("hilbert.projective_implementation", "unclonelab.hilbert.povm", "projective_implementation"),
    ("hilbert.threshold_measure_register", "unclonelab.hilbert.povm", "threshold_measure_register"),
    ("purify.type_vs_haar_distance", "unclonelab.purify", "type_vs_haar_distance"),
    ("purify.compiler_equivalence_check", "unclonelab.purify", "compiler_equivalence_check"),
    ("purify.small_range_experiment", "unclonelab.purify", "small_range_experiment"),
    ("sde_ue.run_game", "unclonelab.sde_ue.games", "run_game"),
    ("sde_ue.sde_enc", "unclonelab.sde_ue.compiler", "sde_enc"),
    ("cli.run", "unclonelab.cli", "run"),
    ("report.render", "unclonelab.report", "render"),
)
# the same, but only counted: no span per call
COUNTED = (("primitives.sha256", "unclonelab.primitives.hashes", "sha256"),)
# modules that hash without going through primitives.hashes.sha256
BYPASS = (("unclonelab.coin", "hashlib", "sha256"),
          ("unclonelab.sde_ue.mockfe", "hmac", "new"),
          ("unclonelab.sde_ue.onesde", "hmac", "new"))
BYPASS_METRIC = "primitives.sha256_bypass"

# call outcomes counted as ratios: metric -> (span name, predicate on result)
OUTCOMES = {
    "detsig.verify.reject_ratio": ("detsig.verify", lambda ok: not ok),
    "coin.coin_verify.accept_ratio": ("coin.coin_verify", lambda r: r[0] == 1),
}


def self_times(spans) -> list[int]:
    """Self time of each span: duration minus the union of its children.

    ``spans`` is a list of (name, start, end, parent index, op id) with the
    parent index -1 for a root span.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


class _CountingProxy:
    """Stands in for a module, counting calls of one of its functions."""

    def __init__(self, module, attr, tracer):
        self._module = module
        self._attr = attr
        self._tracer = tracer

    def __getattr__(self, name):
        value = getattr(self._module, name)
        if name != self._attr:
            return value
        tracer = self._tracer

        def counted(*args, **kwargs):
            tracer.count(BYPASS_METRIC)
            return value(*args, **kwargs)

        return counted


class Tracer:
    """Collects spans and counts; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int | None]] = []
        self.counts: Counter = Counter()
        self.outcomes: Counter = Counter()
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def count(self, name: str) -> None:
        if self.op_id is not None:
            self.counts[name] += 1

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        outcome = [(metric, pred) for metric, (span, pred) in OUTCOMES.items()
                   if span == name]

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
            for metric, pred in outcome:
                if self.op_id is not None and pred(result):
                    self.outcomes[metric] += 1
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def _replace_everywhere(self, original, replacement) -> int:
        replaced = 0
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "unclonelab" or mod_name.startswith("unclonelab.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, replacement)
                    replaced += 1
        return replaced

    def _install(self, mod_name: str, path: str, wrap) -> None:
        module = importlib.import_module(mod_name)
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(module, cls_name)
            raw = inspect.getattr_static(cls, meth)
            self._restore.append((cls, meth, raw))
            setattr(cls, meth, classmethod(wrap(raw.__func__))
                    if isinstance(raw, classmethod) else wrap(raw))
            return
        original = getattr(module, path)
        if not self._replace_everywhere(original, wrap(original)):
            raise RuntimeError(f"no binding of {mod_name}.{path} found")

    def install(self) -> None:
        for name, mod_name, path in SPANS:
            self._install(mod_name, path, lambda fn: self._span_wrapper(name, fn))
        for name, mod_name, path in COUNTED:
            self._install(mod_name, path, lambda fn: self._count_wrapper(name, fn))
        for mod_name, lib, attr in BYPASS:
            module = importlib.import_module(mod_name)
            real = getattr(module, lib)
            self._restore.append((module, lib, real))
            setattr(module, lib, _CountingProxy(real, attr, self))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-operation calls, self time and ratios over the timed phase."""
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for span, own in zip(self.spans, self_times(self.spans)):
            if span[4] is not None:
                calls[span[0]] += 1
                self_ns[span[0]] += own
        out: dict[str, float] = {}
        for name, _, _ in SPANS:
            out[f"{name}.calls_per_op"] = calls[name] / ops
            out[f"{name}.self_ms_per_op"] = self_ns[name] / 1e6 / ops
        for name, _, _ in COUNTED:
            out[f"{name}.calls_per_op"] = self.counts[name] / ops
        out[f"{BYPASS_METRIC}.calls_per_op"] = self.counts[BYPASS_METRIC] / ops
        for metric, (span, _) in OUTCOMES.items():
            out[metric] = _ratio(self.outcomes[metric], calls[span])
        out["detsig.ots_checks_per_verify"] = _ratio(
            calls["primitives.ots_verify"], calls["detsig.verify"])
        return out

    def write(self, path: Path) -> None:
        """Write spans as tab-separated lines: name start end parent op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start}\t{end}\t{parent}\t"
                         f"{'' if op is None else op}\n")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
