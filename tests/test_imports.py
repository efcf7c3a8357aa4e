"""The import boundary: a module loads only the layers it drives.

``unclonelab.cli`` imports the library inside each handler, so loading the
CLI (and building its parser) costs no scheme module, and detsig reaches
hilbert only when the plus-one game builds a register. The CLI spells the
library's choice tables out; these tests pin them to the library's.
"""

import os
import subprocess
import sys
from pathlib import Path

import unclonelab
from unclonelab.cli import EXPERIMENTS

_SRC = str(Path(unclonelab.__file__).resolve().parents[1])


def _loaded_after(statement: str) -> set[str]:
    """The unclonelab modules a fresh interpreter holds after statement."""
    code = (f"import sys\n{statement}\n"
            "print(*sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'unclonelab'))")
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
    from unclonelab.sde_ue import ADVERSARIES, GAMES

    choices = {(name, flag.name): flag.choices
               for name, spec in EXPERIMENTS.items() for flag in spec.flags}
    assert choices["coin demo", "attack"] == tuple(sorted(ATTACKS))
    assert choices["game run", "name"] == GAMES
    assert choices["game run", "adversary"] == tuple(sorted(ADVERSARIES))

