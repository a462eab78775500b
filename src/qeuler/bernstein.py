"""Bernstein basis polynomials and the Bernstein operator, exact over Q.

B_{k,n}(x) = C(n,k) x^k (1-x)^(n-k) for 0 <= k <= n, expanded into the
monomial basis by the binomial theorem.  Coefficients are constant
elements of Q(q), so the results compose with the rest of the package.
"""

from __future__ import annotations

from typing import Sequence

from .exactalg import Rational, XPoly, _binomial_power, binomial

__all__ = ["bernstein_basis", "bernstein_operator"]


def bernstein_basis(k: int, n: int) -> XPoly:
    """The Bernstein basis polynomial B_{k,n} as an XPoly of degree n.

    Expanded by the binomial theorem: the x^(k+j) coefficient is
    C(n,k) * C(n-k,j) * (-1)^j.  Raises ValueError unless 0 <= k <= n.
    """
    return XPoly(_bernstein_ints(k, n))


def _bernstein_ints(k: int, n: int) -> list[int]:
    """The integer coefficients of B_{k,n}, index i holding that of x^i."""
    if n < 0 or k < 0:
        raise ValueError("bernstein_basis needs nonnegative k and n")
    if k > n:
        raise ValueError(f"bernstein_basis index k={k} exceeds degree n={n}")
    lead = binomial(n, k)
    return [0] * k + [lead * c for c in _binomial_power(1, -1, n - k)]


def bernstein_operator(samples: Sequence[Rational | int], n: int) -> XPoly:
    """Degree-n Bernstein approximant sum_k samples[k] * B_{k,n}.

    samples[k] plays the role of f(k/n), so exactly n+1 samples, each an
    int or a Fraction, are required and n must be at least 1.
    """
    if n < 1:
        raise ValueError("bernstein_operator needs n >= 1")
    if len(samples) != n + 1:
        raise ValueError(f"expected {n + 1} samples for degree {n}, got {len(samples)}")
    acc = XPoly()
    for k, sample in enumerate(samples):
        if not isinstance(sample, (int, Rational)):
            raise TypeError(f"samples must be int or Fraction, not {sample!r}")
        if sample:
            acc = acc + bernstein_basis(k, n) * sample
    return acc
