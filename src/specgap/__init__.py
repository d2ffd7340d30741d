"""specgap: random regular graphs, long-range expansion, and nonlinear
Poincare constants for unconditional norms.

Submodules
----------
graphs      the (n, d) neighbour-array graph, BFS balls, edge-list I/O
sampling    pairing-model sampling and exploration statistics
spectral    eigenvalues, Cheeger constants, spectral certificates
expansion   long-range expansion checking, fitting, sufficient conditions
norms       1-unconditional norm trees, cotype and concavity constants
poincare    Poincare-ratio evaluation, search, distance sweeps
constants   the named constants: one table of closed forms for their logs
logspace    numbers >= 0 stored as their natural logs
"""

__version__ = "0.1.0"

from .logspace import LogScalar  # noqa: F401
from .graphs import RegularGraph  # noqa: F401
