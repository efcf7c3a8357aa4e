"""Seeded randomness for experiments.

Every stochastic experiment takes one integer seed and derives all of its
randomness from a counter-based Philox generator, so reports are reproducible
byte for byte.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = ["make_rng"]


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator for a single experiment."""
    import numpy as np  # loaded on first use: cli --help needs no numpy

    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise TypeError("seed must be an int")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))

