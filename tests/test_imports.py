"""The import boundary: a module loads only the layers it drives.

``unclonelab.cli`` imports the library inside each handler, so loading the
CLI (and building its parser) costs no scheme module, and detsig reaches
hilbert only when the plus-one game builds a register. The CLI spells the
library's choice tables out; these tests pin them to the library's.
Each name is imported from the module that defines it, so a package
``__init__`` re-exports nothing and loading one submodule loads no sibling.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import unclonelab
from unclonelab.cli import EXPERIMENTS

_SRC = str(Path(unclonelab.__file__).resolve().parents[1])
_PKG = Path(_SRC) / "unclonelab"
# the one name a package __init__ defines is hilbert's measure dispatcher,
# and these are the two imports it needs
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


def test_a_run_loads_its_own_stack():
    loaded = _loaded_after(
        "from unclonelab.cli import main\n"
        "main(['detsig', 'sign', '--n', '4', '--message', 'a', '--seed', '1'])")
    assert "unclonelab.detsig" in loaded
    assert not {m for m in loaded
                if m.startswith(("unclonelab.hilbert", "unclonelab.coin",
                                 "unclonelab.sde_ue"))}


def test_choice_tables_match_the_library():
    from unclonelab.coin import ATTACKS
    from unclonelab.sde_ue.games import ADVERSARIES, GAMES

    choices = {(name, flag.name): flag.choices
               for name, spec in EXPERIMENTS.items() for flag in spec.flags}
    assert choices["coin demo", "attack"] == tuple(sorted(ATTACKS))
    assert choices["game run", "name"] == GAMES
    assert choices["game run", "adversary"] == tuple(sorted(ADVERSARIES))



def test_vectors_loads_only_what_it_drives():
    loaded = _loaded_after("from unclonelab.cli import main\n"
                           "main(['vectors', '--seed', '0'])")
    assert "unclonelab.sde_ue.onesde" in loaded
    assert not loaded & {"unclonelab.sde_ue.compiler", "unclonelab.sde_ue.games",
                         "unclonelab.sde_ue.ue", "unclonelab.sde_ue.mockfe",
                         "unclonelab.hilbert.povm"}


def test_detsig_loads_no_kwise():
    loaded = _loaded_after("import unclonelab.detsig")
    assert "unclonelab.primitives.pprf" in loaded
    assert "unclonelab.primitives.kwise" not in loaded


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


def _library_imports():
    """(file, module, name) for every `from <unclonelab module> import name`."""
    for path in sorted(_PKG.rglob("*.py")):
        package = path.relative_to(_SRC).with_suffix("").parts[:-1]
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            base = package[:len(package) - node.level + 1] if node.level else ()
            module = ".".join(base + ((node.module,) if node.module else ()))
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
