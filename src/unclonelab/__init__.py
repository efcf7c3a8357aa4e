"""Desk-scale implementation-and-verification laboratory for unclonable cryptography.

Subpackages build upward: hilbert (states and measurement theory), primitives
(puncturable PRF, one-time signatures), detsig (deterministic tree
signatures), prs (phase pseudorandom states), minischeme (subspace
banknotes), purify (purification-compiler experiments), coin (quantum
coins), sde_ue (single-decryptor and unclonable encryption wiring with game
harnesses), and a CLI that drives every experiment with seeded,
reproducible JSON reports.
"""

__version__ = "0.1.0"
