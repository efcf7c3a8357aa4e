"""The import boundary and the reach map of the library.

``unclonelab.cli`` imports the library inside each handler, so loading the
CLI (and building its parser) costs no scheme module, and detsig never
loads hilbert. The CLI spells the library's choice tables out; these tests
pin them to the library's. Each name is imported from the module that
defines it, so a package ``__init__`` re-exports nothing and loading one
submodule loads no sibling. Every public def, class and method is reached
from the library itself, is a CLI handler, or is allowlisted with the gate
that keeps it, so no API arrives that only its own unit tests call; an
allowlisted name that the library reaches is a stale entry and fails. A
module-level def or class is reached only through its own module: an
import of it, a `<module alias>.name` attribute, or a use in that module;
a method is reached by an attribute read of its name (`obj.name`), so a
variable or parameter of that name is not a use, nor is a read from an
imported non-library module (`np.allclose`).
"""

import ast
import math
import os
import subprocess
import symtable
import sys
from pathlib import Path

import pytest

import unclonelab
from unclonelab.cli import EXPERIMENTS

_SRC = str(Path(unclonelab.__file__).resolve().parents[1])
_PKG = Path(_SRC) / "unclonelab"
# the two names a package __init__ re-exports: hilbert's HybridState and
# states.measure
_INIT_IMPORTS = {("hilbert", "HybridState"), ("hilbert", "measure")}


def _loaded_after(statement: str, package: str = "unclonelab") -> set[str]:
    """The package's modules a fresh interpreter holds after statement."""
    code = (f"import sys\n{statement}\n"
            "print(*sorted(m for m in sys.modules"
            f" if m.split('.')[0] == {package!r}))")
    path = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=path))
    return set(proc.stdout.splitlines()[-1].split())  # after any report


def test_cli_loads_no_scheme_module():
    loaded = _loaded_after("import unclonelab.cli as cli\n"
                           "cli.build_parser()")
    assert loaded == {"unclonelab", "unclonelab.cli", "unclonelab.report",
                      "unclonelab.rng"}
    scheme = ("unclonelab.coin", "unclonelab.minischeme", "unclonelab.prs",
              "unclonelab.purify", "unclonelab.sde_ue", "unclonelab.hilbert")
    assert not {m for m in loaded if m.startswith(scheme)}


def test_cli_front_end_loads_no_numpy():
    assert not _loaded_after("import unclonelab.cli as cli\n"
                             "cli.build_parser()", "numpy")
    # a usage error is refused before any handler runs
    assert not _loaded_after(
        "from unclonelab.cli import main\n"
        "assert main(['coin', 'demo', '--trials', '0', '--seed', '1']) == 1",
        "numpy")


def test_detsig_loads_no_hilbert_module():
    loaded = _loaded_after("import unclonelab.detsig")
    assert "unclonelab.detsig" in loaded
    assert not {m for m in loaded if m.startswith("unclonelab.hilbert")}


def test_detsig_loads_no_numpy():
    # numpy appears in the classical stack only in annotations
    assert not _loaded_after("import unclonelab.detsig", "numpy")


def test_a_run_loads_its_own_stack():
    loaded = _loaded_after(
        "from unclonelab.cli import main\n"
        "main(['detsig', 'sign', '--n', '4', '--message', 'a', '--seed', '1'])")
    assert "unclonelab.detsig" in loaded
    assert not {m for m in loaded
                if m.startswith(("unclonelab.hilbert", "unclonelab.coin",
                                 "unclonelab.sde_ue"))}


@pytest.mark.parametrize("argv", [["purify", "typedist"],
                                  ["purify", "compiler"],
                                  ["prs", "overlap"], ["prs", "srd"]])
def test_purify_runs_load_no_prs_or_hashes(argv):
    loaded = _loaded_after("from unclonelab.cli import main\n"
                           f"main({argv + ['--seed', '1']!r})")
    assert "unclonelab.purify" in loaded
    assert not loaded & {"unclonelab.prs", "unclonelab.primitives.pprf",
                         "unclonelab.primitives.hashes"}


def test_choice_tables_match_the_library():
    from unclonelab import coin, detsig, minischeme, prs, purify
    from unclonelab.hilbert.states import MAX_STATE_AMPLITUDES
    from unclonelab.primitives.ots import MAX_DIGEST_BITS
    from unclonelab.primitives.pprf import MAX_OUTPUT_BITS
    from unclonelab.rng import make_rng
    from unclonelab.sde_ue.compiler import MAX_MESSAGE_BITS
    from unclonelab.sde_ue.games import ADVERSARIES, GAMES, MAX_Q, run_game
    from unclonelab.sde_ue.mockfe import MAX_ISSUED_KEYS

    flags = {(name, flag.name): flag
             for name, spec in EXPERIMENTS.items() for flag in spec.flags}
    assert flags["coin demo", "attack"].choices == tuple(sorted(coin.ATTACKS))
    assert flags["game run", "name"].choices == GAMES
    assert flags["game run", "adversary"].choices == tuple(sorted(ADVERSARIES))

    detsig_leaves = ("detsig demo", "detsig sign", "detsig verify",
                     "detsig vectors")
    longest = MAX_STATE_AMPLITUDES  # the longest array a state may hold
    highs = {
        ("coin demo", "id_bits"): coin.MAX_ID_BITS,
        ("coin demo", "mini_n"): coin.MAX_MINI_BITS,
        ("coin demo", "coins"): coin.MAX_COINS_ISSUED,
        **{(leaf, "n"): detsig.MAX_MESSAGE_BITS for leaf in detsig_leaves},
        # the tag PRF's widest output in whole bytes
        **{(leaf, "tag_bits"): MAX_OUTPUT_BITS - MAX_OUTPUT_BITS % 8
           for leaf in detsig_leaves},
        **{(leaf, "digest_bits"): MAX_DIGEST_BITS for leaf in detsig_leaves},
        ("purify typedist", "n"): purify.MAX_TYPEDIST_N,
        ("purify typedist", "t"): purify.MAX_TYPEDIST_T,
        ("purify compiler", "n"): 4,
        ("purify compiler", "t"): 3,
        ("purify compiler", "payload_qubits"): purify.MAX_PAYLOAD_QUBITS,
        ("prs demo", "n"): prs.MAX_QUBITS,
        ("prs overlap", "k"): 3,
        ("prs overlap", "ell"): longest,
        ("prs overlap", "domain_bits"): longest.bit_length() - 1,
        ("prs overlap", "trials"): longest,
        ("prs srd", "k"): longest,
        ("prs srd", "ell"): longest,
        ("prs srd", "domain"): purify.MAX_SRD_DOMAIN,
        ("mini demo", "n"): minischeme.MAX_AMBIENT_BITS,
        ("sde demo", "message_bits"): MAX_MESSAGE_BITS,
        ("sde demo", "keys"): MAX_ISSUED_KEYS,
        ("ue demo", "message_bits"): MAX_MESSAGE_BITS,
        ("game run", "q"): MAX_Q,
        ("game run", "gamma"): 0.5,
    }
    assert {key: flag.high for key, flag in flags.items()
            if flag.high is not None} == highs
    # the library spells these caps as literals: it refuses one step above,
    # before it reads the spec
    rng = make_rng(1)
    with pytest.raises(ValueError, match="runs at n <= 4"):
        purify.compiler_equivalence_check(None, 5, 1, rng)
    with pytest.raises(ValueError, match="runs at n <= 4"):
        purify.compiler_equivalence_check(None, 4, 4, rng)
    with pytest.raises(ValueError, match="k <= 3"):
        purify.small_range_experiment(4, 32, 2, 1, rng)
    with pytest.raises(ValueError, match="gamma must be"):
        run_game("identical-challenge", "junk", 1,
                 math.nextafter(0.5, math.inf), rng)


def test_vectors_loads_only_what_it_drives():
    loaded = _loaded_after("from unclonelab.cli import main\n"
                           "main(['vectors', '--seed', '0'])")
    assert "unclonelab.sde_ue.onesde" in loaded
    assert not loaded & {"unclonelab.sde_ue.compiler", "unclonelab.sde_ue.games",
                         "unclonelab.sde_ue.ue", "unclonelab.sde_ue.mockfe",
                         "unclonelab.hilbert.povm"}


def _module_path(dotted: str) -> Path:
    path = Path(_SRC).joinpath(*dotted.split("."))
    return path / "__init__.py" if path.is_dir() else path.with_suffix(".py")


def _defined(path: Path) -> set[str]:
    """Names a module's top level defines: defs, classes and assignments."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _imported_module(path: Path, node: ast.ImportFrom) -> str:
    """The dotted module a `from ... import` in path names."""
    package = path.relative_to(_SRC).with_suffix("").parts[:-1]
    base = package[:len(package) - node.level + 1] if node.level else ()
    return ".".join(base + ((node.module,) if node.module else ()))


def _library_imports():
    """(file, module, name) for every `from <unclonelab module> import name`."""
    for path in sorted(_PKG.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = _imported_module(path, node)
            if module.split(".")[0] == "unclonelab":
                for alias in node.names:
                    yield path, module, alias.name


def test_each_name_is_imported_from_its_defining_module():
    wrong = []
    for path, module, name in _library_imports():
        if path.name == "__init__.py":
            ok = (path.parent.name, name) in _INIT_IMPORTS
        else:
            ok = (_module_path(f"{module}.{name}").exists()
                  or name in _defined(_module_path(module)))
        if not ok:
            wrong.append(f"{path.relative_to(_SRC)}: from {module} import {name}")
    assert not wrong


# public names that nothing in the library references, each kept by the
# gate or workload named
_REACH_ALLOWLIST = {
    "primitives.pprf.pprf_puncture":
        "criterion 4: punctured keys agree with the full key off the set",
    "hilbert.povm.threshold_measure":
        "criterion 8: threshold measurement is repeatable on its post state",
    "hilbert.povm.ProjImp.reconstruct":
        "criterion 8: the projective implementation reconstructs its POVM",
    "report.strip_wall_time":
        "criterion 10 and cli-suite compare reports with wall time stripped",
    "cli._Parser.error": "argparse calls it on every parse error",
    "hilbert.hybrid.HybridState.allclose":
        "criterion 6: a verified honest coin comes back unchanged",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(_PKG).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _public_defs():
    """(qualified name, def node, path) for every public top-level def or
    class and every public method of a top-level class."""
    for path in sorted(_PKG.rglob("*.py")):
        module = _module_name(path)
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield f"{module}.{node.name}", node, path
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield f"{module}.{node.name}.{item.name}", item, path


def _attribute_reads():
    """(name, path, line) for every attribute the library reads, as in
    `obj.name`; a variable or parameter of the same name is not a use, and
    neither is a read from an imported non-library module (`np.allclose`)."""
    for path in sorted(_PKG.rglob("*.py")):
        tree = ast.parse(path.read_text())
        outside = {alias.asname or alias.name.split(".")[0]
                   for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names
                   if alias.name.split(".")[0] != "unclonelab"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                base = node.value
                while isinstance(base, ast.Attribute):
                    base = base.value
                if not (isinstance(base, ast.Name) and base.id in outside):
                    yield node.attr, path, node.lineno


def _own_module_uses(path: Path) -> set[str]:
    """Module-level names that path's code refers to outside their own
    body; a local variable of the same name is not a use."""
    used = set()

    def visit(table, enclosing):
        for sym in table.get_symbols():
            if (sym.is_referenced() and sym.get_name() not in enclosing
                    and (table.get_type() == "module" or sym.is_global())):
                used.add(sym.get_name())
        for child in table.get_children():
            visit(child, enclosing | {child.get_name()})

    visit(symtable.symtable(path.read_text(), str(path), "exec"), set())
    return used


def _module_level_uses() -> set[tuple[str, str]]:
    """(module, name) for every module-level name the library uses: imported
    from its module, read as `<module alias>.name`, or used in its module.
    Strings, as in __all__, are not uses."""
    uses = set()
    for path in sorted(_PKG.rglob("*.py")):
        module = _module_name(path)
        uses |= {(module, name) for name in _own_module_uses(path)}
        aliases = {}  # local name -> the library module it binds
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = _imported_module(path, node)
            for alias in node.names:
                if _module_path(f"{source}.{alias.name}").exists():
                    aliases[alias.asname or alias.name] = f"{source}.{alias.name}"
                else:
                    uses.add((source.partition(".")[2], alias.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                uses.add((aliases[node.value.id].partition(".")[2], node.attr))
    return uses


def _is_cli_handler(node) -> bool:
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_experiment"
               for d in getattr(node, "decorator_list", ()))


def test_every_public_name_is_reached_from_the_library():
    module_uses = _module_level_uses()
    # a method by attribute name, so a same-named attribute elsewhere
    # counts too
    refs = {}
    for name, path, line in _attribute_reads():
        refs.setdefault(name, []).append((path, line))
    defs = list(_public_defs())
    unreached, stale = [], []
    for qualname, node, path in defs:
        owner, name = qualname.rsplit(".", 1)
        if owner == _module_name(path):
            reached = (owner, name) in module_uses
        else:
            reached = any(not (p == path and node.lineno <= line <= node.end_lineno)
                          for p, line in refs.get(name, ()))
        if reached and qualname in _REACH_ALLOWLIST:
            stale.append(qualname)
        if not (reached or _is_cli_handler(node) or qualname in _REACH_ALLOWLIST):
            unreached.append(qualname)
    assert not unreached, (
        "public names nothing in src/ references; use them from the library, "
        "move them to tests/helpers.py or allowlist them with a reason: "
        + ", ".join(unreached))
    # an allowlist reason goes stale once the library reaches the name
    assert not stale, "allowlisted names the library reaches: " + ", ".join(stale)
    assert set(_REACH_ALLOWLIST) <= {q for q, _, _ in defs}


def test_every_all_entry_names_a_definition():
    stale = []
    for path in sorted(_PKG.rglob("*.py")):
        tree = ast.parse(path.read_text())
        bound = _defined(path) | {
            (alias.asname or alias.name).split(".")[0]
            for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names}
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
                stale += [f"{_module_name(path)}.{entry.value}"
                          for entry in node.value.elts if entry.value not in bound]
    assert not stale, f"__all__ names no definition: {stale}"
