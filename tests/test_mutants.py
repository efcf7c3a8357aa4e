"""The mutant catalog in tests/mutants.py still applies to the source: each
substitution's old text occurs exactly once, and each killer's node id
names a test file, class or function that exists."""

import importlib
from pathlib import Path

from mutants import CATALOG, ROOT


def test_catalog_applies():
    names = [m.name for m in CATALOG]
    assert len(set(names)) == len(names)
    for mutant in CATALOG:
        assert (ROOT / mutant.path).read_text().count(mutant.old) == 1, mutant.name
        assert mutant.old != mutant.new, mutant.name
        assert mutant.killers, mutant.name
        for killer in mutant.killers:
            path, *parts = killer.split("::")
            assert (ROOT / path).is_file(), killer
            # the test files sit on sys.path under their stems, as pytest
            # imports them
            node = importlib.import_module(Path(path).stem)
            for part in parts:
                node = getattr(node, part.split("[")[0], None)
                assert node is not None, killer
