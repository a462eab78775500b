"""q-Euler numbers and polynomials, Frobenius-Euler numbers, and the
classical Euler numbers they specialize to at q = 1.

Definitions used here:

* The q-Euler numbers E_n(q) in Q(q) satisfy E_0(q) = 2/(q+1) and, for
  n >= 1, the umbral relation q*(E+1)^n + E_n = 0, whose solved form is

      E_n(q) = -(q/(1+q)) * sum_{l=0}^{n-1} C(n,l) E_l(q).

* The q-Euler polynomial of degree n is E_n(x, q) =
  sum_{l=0}^{n} C(n,l) E_l(q) x^(n-l).

* The Frobenius-Euler numbers H_n(u), for a parameter u != 1 in Q(q),
  have exponential generating function (1-u)/(e^t - u), equivalently
  H_0(u) = 1 and (H+1)^n = u*H_n for n >= 1, solved as

      H_n(u) = (1/(u-1)) * sum_{l=0}^{n-1} C(n,l) H_l(u).

* The classical Euler numbers E_n (rationals, generating function
  2/(e^t+1)) satisfy E_0 = 1 and (E+1)^n + E_n = 0 for n >= 1.

They are linked by E_n(q) = (2/(1+q)) * H_n(-1/q), which the identity
suite verifies (eq9_frobenius), and by E_n(q)|_{q=1} = E_n, which the
tests check.  The classical numbers are computed as H_n(-1): at u = -1
the Frobenius-Euler relation is the classical one.  E_n(q) keeps its
own recurrence, so eq9_frobenius compares two independent lists.

Values are memoized in an EulerCache; the shared module-level cache
stops at index 128, where E_128(q) and E_128(1/q) take under a second.
Only frobenius_euler and the EulerCache methods take a cache; every
other function here, and every caller elsewhere in the package, uses
the shared module-level cache.
"""

from __future__ import annotations

import threading
from fractions import Fraction

from .exactalg import PolyQ, RatFunc, XPoly, binomial, lincomb, rational_to_json

__all__ = [
    "MINUS_Q_INVERSE",
    "EulerCache",
    "IndexCapError",
    "euler_number_q",
    "euler_number_q_inverse",
    "euler_poly_q",
    "frobenius_euler",
    "classical_euler_number",
    "table_rows",
]

#: -1/q, the Frobenius-Euler parameter that recovers the q-Euler numbers.
MINUS_Q_INVERSE = RatFunc(PolyQ((-1,)), PolyQ((0, 1)))

#: -q/(1+q), the scale of the solved q-Euler recurrence.
_MINUS_Q_OVER_ONE_PLUS_Q = RatFunc(PolyQ((0, -1)), PolyQ((1, 1)))


class IndexCapError(ValueError):
    """An index above the cap of the EulerCache asked for it."""


class EulerCache:
    """Memo table for q-Euler and Frobenius-Euler values (classical: H_n(-1)).

    Values are computed on demand and never evicted.  Indices above
    ``n_max`` raise IndexCapError; construct a larger cache to go further.
    A single lock guards insertion, so one cache may be shared between
    threads (stored values are immutable); an index already computed is
    read without it, since the lists only ever grow.
    """

    def __init__(self, n_max: int = 128):
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        self.n_max = n_max
        self._lock = threading.Lock()
        self._numbers: list[RatFunc] = [RatFunc(2, PolyQ((1, 1)))]
        self._numbers_inv: list[RatFunc] = []
        self._frobenius: dict[RatFunc, tuple[list[RatFunc], RatFunc]] = {}

    def _check_index(self, n: int) -> None:
        if n < 0:
            raise ValueError("index must be nonnegative")
        if n > self.n_max:
            raise IndexCapError(
                f"index {n} exceeds this cache's cap n_max={self.n_max}; "
                "construct EulerCache(n_max=...) with a larger cap"
            )

    def number(self, n: int) -> RatFunc:
        if 0 <= n < len(self._numbers):
            return self._numbers[n]
        self._check_index(n)
        with self._lock:
            return _convolve_up_to(self._numbers, n, _MINUS_Q_OVER_ONE_PLUS_Q)

    def number_inverse(self, n: int) -> RatFunc:
        """E_n(1/q), the image of the n-th q-Euler number under q -> 1/q."""
        if 0 <= n < len(self._numbers_inv):
            return self._numbers_inv[n]
        self.number(n)
        with self._lock:
            inv = self._numbers_inv
            while len(inv) <= n:
                inv.append(self._numbers[len(inv)].invert_q())
            return inv[n]

    def classical(self, n: int) -> Fraction:
        """The classical Euler number E_n, as the Frobenius-Euler H_n(-1)."""
        return self.frobenius(n, RatFunc(-1)).as_fraction()

    def frobenius(self, n: int, u: RatFunc) -> RatFunc:
        u = RatFunc(u) if not isinstance(u, RatFunc) else u
        entry = self._frobenius.get(u)
        if entry is not None and 0 <= n < len(entry[0]):
            return entry[0][n]
        self._check_index(n)
        if u == RatFunc(1):
            raise ValueError("u = 1 is a pole of the Frobenius-Euler family")
        with self._lock:
            if u not in self._frobenius:  # H_0(u) and the scale, divided once per u
                self._frobenius[u] = ([RatFunc(1)], 1 / (u - 1))
            values, scale = self._frobenius[u]
            return _convolve_up_to(values, n, scale)


def _convolve_up_to(values: list[RatFunc], n: int, scale: RatFunc) -> RatFunc:
    """Extend the seeded list to index n by the solved umbral relation
    v_m = scale * sum_{l<m} C(m,l) v_l, and return v_n."""
    while len(values) <= n:
        m = len(values)
        values.append(scale * lincomb([binomial(m, l) for l in range(m)], values))
    return values[n]


_DEFAULT_CACHE = EulerCache()


def _check_cap(n: int) -> None:
    """Raise IndexCapError, before any work, when n is above the shared cap."""
    _DEFAULT_CACHE._check_index(n)


def euler_number_q(n: int) -> RatFunc:
    """The n-th q-Euler number E_n(q) as a canonical element of Q(q)."""
    return _DEFAULT_CACHE.number(n)


def euler_number_q_inverse(n: int) -> RatFunc:
    """E_n(1/q): the n-th q-Euler number with q replaced by its inverse."""
    return _DEFAULT_CACHE.number_inverse(n)


def euler_poly_q(n: int) -> XPoly:
    """The n-th q-Euler polynomial sum_l C(n,l) E_l(q) x^(n-l).

    Its x^n coefficient is E_0(q) = 2/(q+1), so the degree is exactly n,
    and its value at x = 0 is E_n(q).
    """
    _check_cap(n)
    coeffs = [binomial(n, j) * _DEFAULT_CACHE.number(n - j) for j in range(n + 1)]
    return XPoly(coeffs)


def frobenius_euler(n: int, u: RatFunc, cache: EulerCache | None = None) -> RatFunc:
    """The n-th Frobenius-Euler number H_n(u) for a parameter u != 1 in Q(q)."""
    return (_DEFAULT_CACHE if cache is None else cache).frobenius(n, u)


def classical_euler_number(n: int) -> Fraction:
    """The n-th classical Euler number E_n (value of the Euler polynomial at 0)."""
    return _DEFAULT_CACHE.classical(n)


def _table_values(n_max: int) -> list[tuple[int, RatFunc, Fraction, RatFunc]]:
    """(n, E_n(q), E_n(1), H_n(-1/q)) for n = 0 .. n_max, exact.

    n_max is checked against the shared cache's cap before any value is
    computed.
    """
    _check_cap(n_max)
    rows = []
    for n in range(n_max + 1):
        e = _DEFAULT_CACHE.number(n)
        rows.append((n, e, e(1), _DEFAULT_CACHE.frobenius(n, MINUS_Q_INVERSE)))
    return rows


def table_rows(n_max: int) -> list[dict]:
    """Rows {n, e_nq, e_at_q1, frobenius} for n = 0 .. n_max, JSON-ready.

    e_nq is E_n(q), e_at_q1 its value at q = 1, and frobenius is
    H_n(-1/q); all exact, serialized with decimal strings.
    """
    return [
        {
            "n": n,
            "e_nq": e.to_json(),
            "e_at_q1": rational_to_json(classical),
            "frobenius": frobenius.to_json(),
        }
        for n, e, classical, frobenius in _table_values(n_max)
    ]
