"""Exact arithmetic for the inverse semigroup generated by a family of
atomic subsets of the naturals, its Brandt-extension realization, equation
solvers, and finite-bound verifiers for the associated zero-neighborhood
topologies.

Functions are imported from their modules (`brandt_omega.brandt`,
`.topology`, `.verification`, ...).  The package root keeps only the
family parser and the four value types that the benchmark harness builds.
"""

from .brandt import BrandtElem
from .core import AtomElem
from .families import parse_family
from .topology import AcNbhd, Tau1Nbhd

__version__ = "0.1.0"
