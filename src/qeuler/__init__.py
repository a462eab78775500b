"""Exact arithmetic for q-Euler numbers and their identities.

The package computes q-Euler numbers and polynomials, Frobenius-Euler
numbers and Bernstein basis polynomials over the rational function
field Q(q), verifies a registry of identities relating them by exact
symbolic computation, and cross-checks the symbolic results against
truncated fermionic sums in p-adic arithmetic.
"""

from . import bernstein, euler, exactalg, identities, padic
from .bernstein import *
from .euler import *
from .exactalg import *
from .identities import *
from .padic import *

__version__ = "0.1.0"

__all__ = [
    *exactalg.__all__,
    *euler.__all__,
    *bernstein.__all__,
    *identities.__all__,
    *padic.__all__,
]
