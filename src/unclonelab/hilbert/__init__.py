"""Desk-scale Hilbert-space toolkit: states, hybrid superpositions, measurements.

The package re-exports HybridState and the computational-basis measure of
hilbert.states; every other name lives only in its defining module.
"""

from .hybrid import HybridState
from .states import measure
