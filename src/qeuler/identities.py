"""Symbolic identity verifier over Q(q).

Every integral handled here is of an integrand q^(qshift) * q^(qsign*x)
* P(x) against the alternating (fermionic) measure, with P a polynomial
in x over Q(q).  ``moment_reduce`` reduces such an integral termwise by
the moment rule

    integral of q^x  * x^j   ->  E_j(q)
    integral of q^-x * x^j   ->  E_j(1/q)

with ambient Q(q) coefficients passing through untouched and the
prefactor contributing q^qshift.  That reduction is the single oracle:
each registry identity states a closed form for some such integral (or
a relation between two reduced expressions), and verification computes
the oracle side and the closed form independently, comparing canonical
forms structurally.  No registry entry's closed-form formula is used to
compute any left-hand side.

Registry tags are opaque keys fixed by the external interface:
eq2_symbolic, eq9_frobenius, thm1_reflection, thm2_value_at_two,
thm3_integral, eq14_bernstein_moment, eq15_symmetry, thm4, cor5, thm6,
cor7, thm8, cor9.  Each entry's docstring below states exactly what it
asserts.

``run_suite`` enumerates each selected identity over its parameter
bounds.  An entry's ``bounds`` is the only statement of its grid:
``Identity.enumerate_params`` and the parameter count ``verify_identity``
accepts are read off the bound names (see ``Identity``), never off the
tag.  Tuples violating an identity's side condition are counted as
skipped (never failed) and are additionally re-evaluated into an
"exploratory" bucket that is reported but never asserted.

Six identities (thm4, cor5, thm6, cor7, thm8, cor9) have a closed form
in two pieces, split on their last parameter k.  Their registry entry
carries both as data: ``rhs`` is the k > 0 formula and ``rhs_k0`` the
k = 0 one, each transcribed on its own, and ``Identity.closed_form``
picks between them.  Every caller that wants the closed form goes
through it.  The k = 0 cases also record informationally whether the
general k > 0 formula would have produced the same value (it does not,
in general).  Cross-checks between identities (tags xcheck_*) run when
every identity they relate is selected.  Beyond the reflection chain
they compare results the suite already computed; a base tuple whose
orbit the run has not met is verified for the check but not counted as
a case.

Ten identities have an integral left side.  cor5, cor7 and cor9 are
among them: their alternating sum of E_{j+sk}(1/q) against C(N-sk, j)
(-1)^j is, by the moment rule, the integral of q^-x x^sk (1-x)^(N-sk),
with (sk, N) = (k, n), (2k, n+m) and (s k, sum n_i).  All ten state
their integrand as registry data, ``Identity.integrand``: params ->
(qsign, qshift, integer coefficients of P).  Their left sides and the
reflection chain's integral are c q^qshift times the reduction of the
primitive row P/c (c the content of P, signed like its last coefficient),
cached by (qsign, row) alone and read by no closed form.  thm4 and cor5,
thm6 and cor7, thm8 and cor9 share entries, so the left-side halves of
``xcheck_thm8_*`` and ``xcheck_cor9_*`` read one entry twice: only their
closed-form halves carry evidence.  The powers of 1-x and x+c in P are
the cached rows of ``_binomial_power``.

Each entry also states which tuples have the same two sides: its
``orbit`` key.  A product of Bernstein factors commutes, so thm6 and
thm8 read their degrees as a multiset; cor7 and cor9 read only the
degree sum, s and k; and at k = 0 every factor B_{0,n} is (1-x)^n, so
thm6 and thm8 read only the degree sum.  Within one ``run_suite`` call
each orbit is verified once, at its first tuple, into the run's one
record of its sides.  The sums of thm6 and thm8, which distinct orbits
share, are pure functions of (n+m, k) and (sum n_i, s, k) and are cached
by argument for the process, like the q-Euler values they read and
bounded by the same cap; scalar prefactors such as prod C(n_i, k) stay
outside them.  The rows of the primitive reductions have degree at most
that cap, but eq2's uncapped nshift adds one entry per (m, nshift).
``run_suite`` and a bare ``verify_identity`` compute through the same
functions.  Two sides are compared by subtracting only when their
canonical forms differ.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from math import gcd
from typing import Hashable, Iterator, Mapping, Sequence

from .bernstein import _bernstein_ints, bernstein_basis
from .euler import (
    MINUS_Q_INVERSE,
    _check_cap,
    euler_number_q,
    euler_number_q_inverse,
    euler_poly_q,
    frobenius_euler,
)
from .exactalg import PolyQ, RatFunc, XPoly, _binomial_power, _int_mul, binomial, lincomb, q

__all__ = [
    "SideConditionError",
    "IntegrandExpr",
    "moment_reduce",
    "VerificationResult",
    "Identity",
    "REGISTRY",
    "verify_identity",
    "default_ranges",
    "run_suite",
    "reflection_chain",
    "SuiteReport",
    "ExploratoryRecord",
    "BranchNote",
]


#: The closed forms' quotients, each divided once here rather than per call.
_ONE_OVER_Q = 1 / q
_TWO_OVER_ONE_PLUS_Q = 2 / (1 + q)


class SideConditionError(ValueError):
    """Parameters violate an identity's side condition (not a failure)."""


#: Sets one field of a record; the records refuse plain assignment.
_set = object.__setattr__


class _Record:
    """Construction, equality, hashing, repr and immutability, written once.

    A record names its fields, in order, as its ``__slots__``.  It is
    built from one value per field, by position or by keyword; trailing
    fields the caller leaves out take their value from the class's
    ``_defaults``.  Too many values, a missing field, an unknown keyword
    or a field given twice raise TypeError.  A record that checks its
    values keeps its own ``__init__`` and passes them on to this one.
    """

    __slots__ = ()
    _defaults: Mapping[str, object] = {}

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} values, "
                            f"got {len(args)}")
        for name, value in zip(names, args):
            _set(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                _set(self, name, kwargs.pop(name))
            elif name in self._defaults:
                _set(self, name, self._defaults[name])
            else:
                raise TypeError(f"{type(self).__name__} is missing field {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            problem = "given twice" if name in names else "unknown"
            raise TypeError(f"{type(self).__name__} field {name!r} is {problem}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")


class IntegrandExpr(_Record):
    """Integrand q^qshift * q^(qsign*x) * poly(x) with qsign in {+1, -1}."""

    __slots__ = ("qsign", "qshift", "poly")

    def __init__(self, qsign: int, qshift: int, poly: XPoly) -> None:
        for name, value in (("qsign", qsign), ("qshift", qshift)):
            if type(value) is not int:
                raise TypeError(f"{name} must be an int, got {value!r}")
        if qsign not in (1, -1):
            raise ValueError(f"qsign must be +1 or -1, got {qsign}")
        if not isinstance(poly, XPoly):
            raise TypeError("poly must be an XPoly")
        super().__init__(qsign, qshift, poly)


def moment_reduce(expr: IntegrandExpr) -> RatFunc:
    """Alternating-measure integral of the integrand, reduced termwise.

    Linear in the polynomial part and exact in Q(q); this general path
    caches nothing.
    """
    return _reduce_moments(expr.qsign, expr.qshift, expr.poly.coeffs)


def _reduce_moments(qsign: int, qshift: int, coeffs: Sequence[object]) -> RatFunc:
    """The body of ``moment_reduce`` and of the cached ``_reduce_primitive``."""
    moment = euler_number_q if qsign == 1 else euler_number_q_inverse
    total = lincomb(coeffs, [moment(j) for j in range(len(coeffs))])
    return q**qshift * total if qshift else total


def _reduce_integer(qsign: int, qshift: int, ints: Sequence[int]) -> RatFunc:
    """The reduced integral of an integer integrand (see the module docstring)."""
    content = gcd(*ints) if ints[-1] > 0 else -gcd(*ints)
    total = _reduce_primitive(qsign, tuple(c // content for c in ints))
    total = total if content == 1 else content * total
    return q**qshift * total if qshift else total


@cache
def _reduce_primitive(qsign: int, row: tuple[int, ...]) -> RatFunc:
    return _reduce_moments(qsign, 0, row)


class VerificationResult(_Record):
    """Outcome of one identity check: both sides, their difference, equality.

    ``equal`` is True exactly when ``difference`` is zero.  The sides are
    Q(q) values (``verify_identity``) or residues mod p^M
    (``padic.integral_check_numeric``, whose difference has a p-adic
    valuation of at least min(N, M) for a true identity).
    """

    __slots__ = ("identity", "params", "lhs", "rhs", "equal", "difference")

    def to_json(self) -> dict:
        return {
            "id": self.identity,
            "params": list(self.params),
            "lhs": self.lhs.to_json(),
            "rhs": self.rhs.to_json(),
            "diff": self.difference.to_json(),
        }


# -- identity registry -------------------------------------------------------

Params = tuple[int, ...]
Bounds = Mapping[str, int]


def _always(params: Params) -> bool:
    return True


def _itself(params: Params) -> Hashable:
    return params


class Identity(_Record):
    """One verifiable identity: its parameter grid, side condition, both sides.

    ``bounds`` lists (bound name, CLI flag it answers to, default value)
    and is the only statement of the parameter grid: ``enumerate_params``
    and the parameter count that ``verify_identity`` accepts are both
    read off the bound names.  Every name other than ``s`` and ``k`` is
    a degree running from 0 to its bound; with ``s`` the degrees are
    instead 1 to s of them, each bounded by ``n``; with ``k`` a last
    parameter k runs up to the smallest degree and to its own bound.
    ``lhs(params)`` and ``rhs(params)`` return a RatFunc or an XPoly and
    take every q-Euler value from the ``euler`` functions, which keep
    the q-Euler cache.  For the piecewise identities ``rhs`` is the k > 0
    closed form and ``rhs_k0(params)`` the one at k = 0; ``closed_form``
    picks between them, and ``run_suite`` also evaluates ``rhs`` at k = 0
    for the informational branch notes.
    ``orbit(params)`` is a key such that tuples with one key have the same
    ``lhs``, the same closed form and the same ``rhs``; ``run_suite``
    verifies each key once per run (see the module docstring).  The
    default key is the tuple itself.
    ``max_index(params)`` is the largest q-Euler index the tuple asks for
    (None when the identity asks for none).  It grows with every degree,
    so no tuple of a grid asks for more than ``corner(bounds)``;
    ``run_suite`` checks that against the cap of the shared cache before
    any case runs, and ``verify_identity`` each tuple before its sides.
    ``integrand``, set on the ten integral identities, gives their ``lhs``.
    """

    __slots__ = ("tag", "description", "bounds", "lhs", "rhs", "admissible", "rhs_k0",
                 "max_index", "orbit", "integrand")
    _defaults = {"admissible": _always, "rhs_k0": None, "max_index": None,
                 "orbit": _itself, "integrand": None}

    def enumerate_params(self, bounds: Bounds) -> Iterator[Params]:
        """The raw grid for the given bound values.

        Includes tuples that violate the side condition (the caller
        skips those).
        """
        names = [name for name, _, _ in self.bounds]
        if "s" in names:
            shapes = [[bounds["n"]] * s for s in range(1, bounds["s"] + 1)]
        else:
            shapes = [[bounds[name] for name in names if name != "k"]]
        for caps in shapes:
            for degrees in product(*(range(cap + 1) for cap in caps)):
                if "k" not in names:
                    yield degrees
                    continue
                for k in range(min(*degrees, bounds["k"]) + 1):
                    yield degrees + (k,)

    def corner(self, bounds: Bounds) -> Params:
        """The tuple with every parameter at its bound (k too, so not always
        in the grid): where ``max_index`` peaks over the grid."""
        if any(name == "s" for name, _, _ in self.bounds):
            return (bounds["n"],) * bounds["s"] + (bounds["k"],)
        return tuple(bounds[name] for name, _, _ in self.bounds)

    def closed_form(self, params: Params) -> object:
        """The closed form at params: ``rhs_k0`` when set and k = 0, else ``rhs``."""
        if self.rhs_k0 is not None and params[-1] == 0:
            return self.rhs_k0(params)
        return self.rhs(params)


def _check_params(identity: Identity, params: Params) -> Params:
    params = tuple(params)
    names = [name for name, _, _ in identity.bounds]
    arity = len(names) - ("s" in names)
    if "s" in names:
        if len(params) < arity:
            raise ValueError(f"{identity.tag} needs at least {arity} parameters")
    elif len(params) != arity:
        raise ValueError(f"{identity.tag} takes exactly {arity} parameters")
    for p in params:
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError(f"{identity.tag} parameters must be integers")
        if p < 0:
            raise ValueError(f"{identity.tag} parameters must be nonnegative")
    return params


# integral left sides and the integer integrands they reduce

def _basis_ints(ns: Sequence[int], k: int) -> tuple[int, ...]:
    """The integer coefficients of the product of the B_{k,n} over ns."""
    ints = [1]
    for n in ns:
        ints = _int_mul(ints, _bernstein_ints(k, n))
    return tuple(ints)


def _moment_sum_ints(sk: int, total: int) -> tuple[int, ...]:
    """The integer coefficients of x^sk (1-x)^(total-sk).

    Against q^-x it integrates to sum_j C(total-sk, j) (-1)^j E_{j+sk}(1/q),
    the sum that cor5, cor7 and cor9 state.
    """
    return (0,) * sk + _binomial_power(1, -1, total - sk)


# eq2_symbolic: shifting the integration variable of q^x x^m by nshift

def _eq2_rhs(params: Params) -> RatFunc:
    m, nshift = params
    boundary = PolyQ([(-1) ** (nshift - 1 - l) * l**m for l in range(nshift)])
    return (-1) ** nshift * euler_number_q(m) + 2 * boundary


# eq9_frobenius: E_n(q) = (2/(1+q)) H_n(-1/q)

def _eq9_lhs(params: Params) -> RatFunc:
    (n,) = params
    return euler_number_q(n)


def _eq9_rhs(params: Params) -> RatFunc:
    (n,) = params
    return _TWO_OVER_ONE_PLUS_Q * frobenius_euler(n, MINUS_Q_INVERSE)


# thm1_reflection: (-1)^n E_n(x, 1/q) = q E_n(1-x, q), coefficientwise

def _thm1_lhs(params: Params) -> XPoly:
    (n,) = params
    return euler_poly_q(n).invert_q() * RatFunc((-1) ** n)


def _thm1_rhs(params: Params) -> XPoly:
    (n,) = params
    return euler_poly_q(n).compose_affine(-1, 1) * q


# thm2_value_at_two: q E_n(2, q) = 2 + (1/q) E_n(q) for n >= 1

def _thm2_rhs(params: Params) -> RatFunc:
    (n,) = params
    return 2 + _ONE_OVER_Q * euler_number_q(n)


# thm3_integral: integral of q^-x (1-x)^n equals 2 + (1/q) * integral of q^x x^n

def _thm3_rhs(params: Params) -> RatFunc:
    (n,) = params
    return 2 + _ONE_OVER_Q * euler_number_q(n)


# eq14_bernstein_moment: integral of q^x B_{k,n} in terms of E_{k+j}(q)

def _eq14_rhs(params: Params) -> RatFunc:
    n, k = params
    js = range(n - k + 1)
    acc = lincomb([binomial(n - k, j) * (-1) ** j for j in js],
                  [euler_number_q(k + j) for j in js])
    return binomial(n, k) * acc


# eq15_symmetry: B_{k,n}(x) = B_{n-k,n}(1-x)

def _eq15_lhs(params: Params) -> XPoly:
    n, k = params
    return bernstein_basis(k, n)


def _eq15_rhs(params: Params) -> XPoly:
    n, k = params
    return bernstein_basis(n - k, n).compose_affine(-1, 1)


# thm4: integral of q^(1-x) B_{k,n}, piecewise in k, for n > k

def _thm4_rhs(params: Params) -> RatFunc:
    n, k = params
    js = range(k + 1)
    acc = lincomb([binomial(k, j) * (-1) ** (k - j) for j in js],
                  [euler_number_q(n - j) for j in js])
    return binomial(n, k) * acc


def _thm4_rhs_k0(params: Params) -> RatFunc:
    n, _ = params
    return 2 * q + euler_number_q(n)


# cor5: the q -> 1/q image of eq14 against thm4, piecewise in k, for n > k

def _cor5_rhs(params: Params) -> RatFunc:
    n, k = params
    js = range(k + 1)
    acc = lincomb([binomial(k, j) * (-1) ** (k - j) for j in js],
                  [euler_number_q(n - j) for j in js])
    return _ONE_OVER_Q * acc


def _cor5_rhs_k0(params: Params) -> RatFunc:
    n, _ = params
    return 2 + _ONE_OVER_Q * euler_number_q(n)


# thm6: integral of q^(1-x) B_{k,n} B_{k,m}, piecewise in k, for n + m > 2k

def _thm6_rhs(params: Params) -> RatFunc:
    n, m, k = params
    return binomial(n, k) * binomial(m, k) * _thm6_sum(n + m, k)


@cache
def _thm6_sum(total: int, k: int) -> RatFunc:
    js = range(2 * k + 1)
    return lincomb([binomial(2 * k, j) * (-1) ** (j + 2 * k) for j in js],
                   [euler_number_q(total - j) for j in js])


def _thm6_rhs_k0(params: Params) -> RatFunc:
    n, m, _ = params
    return 2 * q + euler_number_q(n + m)


def _thm6_orbit(params: Params) -> tuple:
    n, m, k = params
    return (n + m,) if k == 0 else (min(n, m), max(n, m), k)


# cor7: alternating sum of E_{j+2k}(1/q) against thm6, for n + m > 2k

def _cor7_rhs(params: Params) -> RatFunc:
    n, m, k = params
    js = range(2 * k + 1)
    acc = lincomb([binomial(2 * k, j) * (-1) ** (j + 2 * k) for j in js],
                  [euler_number_q(n + m - j) for j in js])
    return _ONE_OVER_Q * acc


def _cor7_rhs_k0(params: Params) -> RatFunc:
    n, m, _ = params
    return 2 + _ONE_OVER_Q * euler_number_q(n + m)


# thm8: integral of q^(1-x) * product of s Bernstein factors, sum n_i > s k

def _thm8_split(params: Params) -> tuple[tuple[int, ...], int]:
    return params[:-1], params[-1]


def _thm8_rhs(params: Params) -> RatFunc:
    ns, k = _thm8_split(params)
    lead = 1
    for n in ns:
        lead *= binomial(n, k)
    return lead * _thm8_sum(sum(ns), len(ns), k)


@cache
def _thm8_sum(total: int, s: int, k: int) -> RatFunc:
    js = range(s * k + 1)
    return lincomb([binomial(s * k, j) * (-1) ** (s * k + j) for j in js],
                   [euler_number_q(total - j) for j in js])


def _thm8_rhs_k0(params: Params) -> RatFunc:
    ns, _ = _thm8_split(params)
    return 2 * q + euler_number_q(sum(ns))


def _thm8_orbit(params: Params) -> tuple:
    ns, k = _thm8_split(params)
    return (sum(ns),) if k == 0 else (tuple(sorted(ns)), k)


# cor9: alternating sum of E_{j+sk}(1/q) against thm8, sum n_i > s k

def _cor9_rhs(params: Params) -> RatFunc:
    ns, k = _thm8_split(params)
    total, s = sum(ns), len(ns)
    js = range(s * k + 1)
    acc = lincomb([binomial(s * k, j) * (-1) ** (s * k + j) for j in js],
                  [euler_number_q(total - j) for j in js])
    return _ONE_OVER_Q * acc


def _cor9_rhs_k0(params: Params) -> RatFunc:
    ns, _ = _thm8_split(params)
    return 2 + _ONE_OVER_Q * euler_number_q(sum(ns))


REGISTRY: dict[str, Identity] = {}


def _register(**fields) -> None:
    fields.setdefault("lhs", lambda p: _reduce_integer(*fields["integrand"](p)))
    identity = Identity(**fields)
    REGISTRY[identity.tag] = identity


def _lookup(tag: str) -> Identity:
    identity = REGISTRY.get(tag)
    if identity is None:
        raise ValueError(f"unknown identity {tag!r}; known: {', '.join(REGISTRY)}")
    return identity


_register(
    tag="eq2_symbolic",
    description=(
        "shifting q^x x^m by nshift: the shifted integral equals "
        "(-1)^nshift times the plain one plus twice the alternating "
        "boundary sum of q^l l^m"
    ),
    bounds=(("m", "m", 6), ("nshift", "n", 4)),
    max_index=lambda p: p[0],
    admissible=lambda p: p[1] >= 1,
    integrand=lambda p: (1, p[1], _binomial_power(p[1], 1, p[0])),
    rhs=_eq2_rhs,
)

_register(
    tag="eq9_frobenius",
    description="E_n(q) = (2/(1+q)) H_n(-1/q)",
    bounds=(("n", "n", 10),),
    max_index=lambda p: p[0],
    lhs=_eq9_lhs,
    rhs=_eq9_rhs,
)

_register(
    tag="thm1_reflection",
    description="(-1)^n E_n(x, 1/q) = q E_n(1-x, q), coefficientwise in x",
    bounds=(("n", "n", 8),),
    max_index=lambda p: p[0],
    lhs=_thm1_lhs,
    rhs=_thm1_rhs,
)

_register(
    tag="thm2_value_at_two",
    description="q E_n(2, q) = 2 + (1/q) E_n(q) for n >= 1",
    bounds=(("n", "n", 8),),
    max_index=lambda p: p[0],
    admissible=lambda p: p[0] >= 1,
    integrand=lambda p: (1, 1, _binomial_power(2, 1, p[0])),
    rhs=_thm2_rhs,
)

_register(
    tag="thm3_integral",
    description=(
        "integral of q^-x (1-x)^n equals 2 + (1/q) integral of q^x x^n "
        "for n >= 1"
    ),
    bounds=(("n", "n", 8),),
    max_index=lambda p: p[0],
    admissible=lambda p: p[0] >= 1,
    integrand=lambda p: (-1, 0, _binomial_power(1, -1, p[0])),
    rhs=_thm3_rhs,
)

_register(
    tag="eq14_bernstein_moment",
    description=(
        "integral of q^x B_{k,n} equals C(n,k) times the alternating "
        "sum of E_{k+j}(q), j up to n-k"
    ),
    bounds=(("n", "n", 8), ("k", "k", 8)),
    max_index=lambda p: p[0],
    admissible=lambda p: p[1] < p[0],
    integrand=lambda p: (1, 0, _basis_ints(p[:1], p[1])),
    rhs=_eq14_rhs,
)

_register(
    tag="eq15_symmetry",
    description="B_{k,n}(x) = B_{n-k,n}(1-x)",
    bounds=(("n", "n", 10), ("k", "k", 10)),
    lhs=_eq15_lhs,
    rhs=_eq15_rhs,
)

_register(
    tag="thm4",
    description=(
        "integral of q^(1-x) B_{k,n} for n > k: 2q + E_n(q) when k = 0, "
        "else C(n,k) sum_j C(k,j) (-1)^(k-j) E_{n-j}(q)"
    ),
    bounds=(("n", "n", 8), ("k", "k", 8)),
    max_index=lambda p: p[0],
    admissible=lambda p: p[1] < p[0],
    integrand=lambda p: (-1, 1, _basis_ints(p[:1], p[1])),
    rhs=_thm4_rhs,
    rhs_k0=_thm4_rhs_k0,
)

_register(
    tag="cor5",
    description=(
        "sum_j C(n-k,j) (-1)^j E_{k+j}(1/q) for n > k: 2 + (1/q) E_n(q) "
        "when k = 0, else (1/q) sum_j C(k,j) (-1)^(k-j) E_{n-j}(q)"
    ),
    bounds=(("n", "n", 8), ("k", "k", 8)),
    max_index=lambda p: p[0],
    admissible=lambda p: p[1] < p[0],
    integrand=lambda p: (-1, 0, _moment_sum_ints(p[1], p[0])),
    rhs=_cor5_rhs,
    rhs_k0=_cor5_rhs_k0,
)

_register(
    tag="thm6",
    description=(
        "integral of q^(1-x) B_{k,n} B_{k,m} for n + m > 2k: "
        "2q + E_{n+m}(q) when k = 0, else C(n,k) C(m,k) "
        "sum_j C(2k,j) (-1)^(j+2k) E_{n+m-j}(q)"
    ),
    bounds=(("n", "n", 6), ("m", "m", 6), ("k", "k", 6)),
    max_index=lambda p: p[0] + p[1],
    admissible=lambda p: p[0] + p[1] > 2 * p[2],
    integrand=lambda p: (-1, 1, _basis_ints(p[:2], p[2])),
    rhs=_thm6_rhs,
    rhs_k0=_thm6_rhs_k0,
    orbit=_thm6_orbit,
)

_register(
    tag="cor7",
    description=(
        "sum_j C(n+m-2k,j) (-1)^j E_{j+2k}(1/q) for n + m > 2k: "
        "2 + (1/q) E_{n+m}(q) when k = 0, else (1/q) "
        "sum_j C(2k,j) (-1)^(j+2k) E_{n+m-j}(q)"
    ),
    bounds=(("n", "n", 6), ("m", "m", 6), ("k", "k", 6)),
    max_index=lambda p: p[0] + p[1],
    admissible=lambda p: p[0] + p[1] > 2 * p[2],
    integrand=lambda p: (-1, 0, _moment_sum_ints(2 * p[2], p[0] + p[1])),
    rhs=_cor7_rhs,
    rhs_k0=_cor7_rhs_k0,
    orbit=lambda p: (p[0] + p[1], p[2]),
)

_register(
    tag="thm8",
    description=(
        "integral of q^(1-x) times a product of s Bernstein factors "
        "B_{k,n_i} for sum n_i > s k: 2q + E_sum(q) when k = 0, else "
        "(prod C(n_i,k)) sum_j C(sk,j) (-1)^(sk+j) E_{sum-j}(q); "
        "params are (n_1, ..., n_s, k)"
    ),
    bounds=(("s", "s", 3), ("n", "n", 4), ("k", "k", 4)),
    max_index=lambda p: sum(p[:-1]),
    admissible=lambda p: sum(p[:-1]) > (len(p) - 1) * p[-1],
    integrand=lambda p: (-1, 1, _basis_ints(p[:-1], p[-1])),
    rhs=_thm8_rhs,
    rhs_k0=_thm8_rhs_k0,
    orbit=_thm8_orbit,
)

_register(
    tag="cor9",
    description=(
        "sum_j C(sum-sk,j) (-1)^j E_{j+sk}(1/q) for sum n_i > s k: "
        "2 + (1/q) E_sum(q) when k = 0, else (1/q) "
        "sum_j C(sk,j) (-1)^(sk+j) E_{sum-j}(q); params are "
        "(n_1, ..., n_s, k)"
    ),
    bounds=(("s", "s", 3), ("n", "n", 4), ("k", "k", 4)),
    max_index=lambda p: sum(p[:-1]),
    admissible=lambda p: sum(p[:-1]) > (len(p) - 1) * p[-1],
    integrand=lambda p: (-1, 0, _moment_sum_ints((len(p) - 1) * p[-1], sum(p[:-1]))),
    rhs=_cor9_rhs,
    rhs_k0=_cor9_rhs_k0,
    orbit=lambda p: (sum(p[:-1]), len(p) - 1, p[-1]),
)


def _admitted(tag: str, params: Sequence[int]) -> tuple[Identity, Params]:
    """The identity and params tuple of a case, refused as ``verify_identity`` says."""
    identity = _lookup(tag)
    params = _check_params(identity, tuple(params))
    if not identity.admissible(params):
        raise SideConditionError(f"{tag} side condition fails at {params}")
    if identity.max_index is not None:
        _check_cap(identity.max_index(params))
    return identity, params


def verify_identity(tag: str, params: Sequence[int]) -> VerificationResult:
    """Check one registry identity at one parameter tuple, exactly.

    Raises SideConditionError when the tuple violates the identity's
    hypothesis, ValueError for malformed parameters or unknown tags, and
    IndexCapError, before either side is formed, when the tuple asks for
    a q-Euler index above the cap.
    """
    identity, params = _admitted(tag, params)
    lhs = identity.lhs(params)
    rhs = identity.closed_form(params)
    difference = _difference(lhs, rhs)
    return VerificationResult(tag, params, lhs, rhs, difference.is_zero, difference)


#: The zero of each kind of side.
_ZEROS = {RatFunc: RatFunc(0), XPoly: XPoly()}


def _difference(a: object, b: object) -> object:
    """a - b, subtracting only when the canonical forms differ.

    Canonical storage makes equal storage equal value, so an equal pair
    takes the zero of its kind; callers still test ``is_zero`` on it.
    """
    return _ZEROS[type(a)] if a == b else a - b


class ExploratoryRecord(_Record):
    """Both sides of an identity at a side-condition-violating tuple.

    Reported for inspection only; never asserted.
    """

    __slots__ = ("identity", "params", "computed", "equal", "note")
    _defaults = {"note": ""}

    def to_json(self) -> dict:
        return {
            "id": self.identity,
            "params": list(self.params),
            "computed": self.computed,
            "equal": self.equal,
            "note": self.note,
        }


class BranchNote(_Record):
    """Whether the k > 0 closed form reproduces the k = 0 value (informational)."""

    __slots__ = ("identity", "params", "coincide")

    def to_json(self) -> dict:
        return {
            "id": self.identity,
            "params": list(self.params),
            "k0_matches_general_branch": self.coincide,
        }


class SuiteReport(_Record):
    """Aggregate of one run_suite invocation; the one mutable record.

    ``cases`` counts admissible tuples actually verified (including
    cross-checks); ``skipped`` counts side-condition violations inside
    the requested bounds.  ``record(result, params)`` logs (tag, params,
    status) in ``case_log``, in execution order (deterministic for fixed
    ranges), for a tuple ``params`` of ``result``'s orbit (by default its
    own); ``failures`` holds each failing tuple at its params, with the
    orbit's sides.  Each list left out starts empty and belongs to this
    report alone.
    """

    __slots__ = ("cases", "passed", "failed", "skipped", "failures", "case_log",
                 "exploratory", "branch_notes")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        cases: int = 0,
        passed: int = 0,
        failed: int = 0,
        skipped: int = 0,
        failures: list[VerificationResult] | None = None,
        case_log: list[tuple[str, tuple[int, ...], str]] | None = None,
        exploratory: list[ExploratoryRecord] | None = None,
        branch_notes: list[BranchNote] | None = None,
    ) -> None:
        self.cases = cases
        self.passed = passed
        self.failed = failed
        self.skipped = skipped
        self.failures = [] if failures is None else failures
        self.case_log = [] if case_log is None else case_log
        self.exploratory = [] if exploratory is None else exploratory
        self.branch_notes = [] if branch_notes is None else branch_notes

    def record(self, result: VerificationResult, params: Params | None = None) -> None:
        params = result.params if params is None else params
        self.cases += 1
        if result.equal:
            self.passed += 1
            self.case_log.append((result.identity, params, "pass"))
        else:
            self.failed += 1
            if params != result.params:  # a later tuple of the orbit
                result = VerificationResult(result.identity, params, result.lhs,
                                            result.rhs, False, result.difference)
            self.failures.append(result)
            self.case_log.append((result.identity, params, "fail"))

    def to_json(self) -> dict:
        return {
            "cases": self.cases,
            "passed": self.passed,
            "failed": self.failed,
            "skipped": self.skipped,
            "failures": [f.to_json() for f in self.failures],
            "exploratory": [e.to_json() for e in self.exploratory],
            "branch_notes": [b.to_json() for b in self.branch_notes],
        }


def default_ranges(
    ids: Sequence[str] | None = None,
    n_max: int | None = None,
    m_max: int | None = None,
    k_max: int | None = None,
    s_max: int | None = None,
) -> dict[str, dict[str, int]]:
    """Per-identity bounds, defaulting to the acceptance grid.

    The four optional caps override every bound that answers to the
    matching CLI flag (n also drives eq2_symbolic's shift count).
    """
    overrides = {"n": n_max, "m": m_max, "k": k_max, "s": s_max}
    selected = list(REGISTRY) if ids is None else list(ids)
    ranges: dict[str, dict[str, int]] = {}
    for tag in selected:
        identity = _lookup(tag)
        resolved = {}
        for bound_name, flag, default in identity.bounds:
            value = overrides.get(flag)
            resolved[bound_name] = default if value is None else value
        ranges[tag] = resolved
    return ranges


def _exploratory_eval(identity: Identity, params: Params) -> ExploratoryRecord:
    try:
        lhs = identity.lhs(params)
        rhs = identity.closed_form(params)
    except (ValueError, ArithmeticError) as exc:  # the library refused the tuple
        return ExploratoryRecord(identity.tag, params, False, None, str(exc))
    return ExploratoryRecord(identity.tag, params, True, lhs == rhs)


def run_suite(ranges: Mapping[str, Mapping[str, int]]) -> SuiteReport:
    """Verify every selected identity over its bounds; aggregate the outcome.

    ``ranges`` maps identity tags to bound values (see default_ranges);
    identities absent from it do not run.  Case ordering is by registry
    order then lexicographic parameter order, so reports are
    deterministic.  Cross-checks run only when all identities they
    relate are selected.
    """
    unknown = set(ranges) - set(REGISTRY)
    if unknown:
        raise ValueError(f"unknown identities in ranges: {sorted(unknown)}")
    for tag, bounds in ranges.items():
        names = {name for name, _, _ in REGISTRY[tag].bounds}
        if set(bounds) != names:
            raise ValueError(f"{tag} bounds: missing {sorted(names - set(bounds))}, "
                             f"unknown {sorted(set(bounds) - names)}")
        for name, value in bounds.items():
            if type(value) is not int or value < 0:
                raise ValueError(f"{tag} bound {name} must be a nonnegative integer, "
                                 f"got {value!r}")
    # Every cross-check reads q-Euler values within the grids of the
    # identities it relates, so the stated maxima cover them too.
    _check_cap(max((REGISTRY[tag].max_index(REGISTRY[tag].corner(bounds))
                    for tag, bounds in ranges.items()
                    if REGISTRY[tag].max_index is not None), default=0))
    return _run_cases(ranges)


def _verify_orbit(orbits: dict, key: tuple[str, Hashable],
                  params: Params) -> VerificationResult:
    """The result of orbit ``key`` (tag, orbit key), verified at ``params`` if new."""
    first = orbits.get(key)
    if first is None:
        first = orbits[key] = verify_identity(key[0], params)
    return first


def _run_cases(ranges: Mapping[str, Mapping[str, int]]) -> SuiteReport:
    report = SuiteReport()
    orbits: dict[tuple[str, Hashable], VerificationResult] = {}
    coincide: dict[tuple[str, Hashable], bool] = {}
    for tag, identity in REGISTRY.items():
        if tag not in ranges:
            continue
        bounds = ranges[tag]
        for params in sorted(identity.enumerate_params(bounds)):
            if not identity.admissible(params):
                report.skipped += 1
                report.exploratory.append(_exploratory_eval(identity, params))
                continue
            key = (tag, identity.orbit(params))
            report.record(_verify_orbit(orbits, key, params), params)
            if identity.rhs_k0 is not None and params[-1] == 0:
                if key not in coincide:
                    coincide[key] = identity.rhs(params) == orbits[key].rhs
                report.branch_notes.append(BranchNote(tag, params, coincide[key]))
    for result in _cross_check_results(ranges, report.case_log, orbits):
        report.record(result)
    return report


# -- cross-checks between identities ----------------------------------------


def _first_difference(*pairs: tuple[RatFunc, RatFunc]) -> tuple[bool, RatFunc]:
    for a, b in pairs:
        d = _difference(a, b)
        if not d.is_zero:
            return False, d
    return True, _ZEROS[RatFunc]


def reflection_chain(n: int) -> tuple[RatFunc, ...]:
    """Four expressions that must coincide for n >= 1.

    (-1)^n E_n(-1, 1/q); q E_n(2, q); 2 + (1/q) E_n(q); and the reduced
    integral of q^-x (1-x)^n.  The first two tie the reflection identity
    at x = -1 to the value at 2; the last two are the closed form and
    the oracle form.
    """
    a = euler_poly_q(n).invert_q()(-1) * RatFunc((-1) ** n)
    b = q * euler_poly_q(n)(2)
    c = 2 + _ONE_OVER_Q * euler_number_q(n)
    d = _reduce_integer(*REGISTRY["thm3_integral"].integrand((n,)))
    return a, b, c, d


def _cross_check_results(
    ranges: Mapping[str, Mapping[str, int]],
    case_log: Sequence[tuple[str, Params, str]],
    orbits: dict,
) -> Iterator[VerificationResult]:
    """The xcheck_* cases over the tuples of ``case_log``, read off ``orbits``.

    Every check but the reflection chain compares recorded values.  A
    base tuple of an orbit the run has not met is verified here once,
    for the check, and is not counted as a case.  Each tuple list is
    taken whole first, as ``case_log`` grows with the checks.
    """
    def recorded(tag: str, params: Params) -> VerificationResult:
        return _verify_orbit(orbits, (tag, REGISTRY[tag].orbit(params)), params)

    chain_tags = ("thm1_reflection", "thm2_value_at_two", "thm3_integral")
    if all(tag in ranges for tag in chain_tags):
        n_hi = min(ranges[tag]["n"] for tag in chain_tags)
        for n in range(1, n_hi + 1):
            a, b, c, d = reflection_chain(n)
            equal, diff = _first_difference((a, b), (a, c), (a, d))
            yield VerificationResult("xcheck_reflection_chain", (n,), a, c, equal, diff)

    if "eq14_bernstein_moment" in ranges:
        # the q -> 1/q swap carries the eq14 formula onto the thm4 one
        for params in [p for tag, p, _ in case_log if tag == "thm4"]:
            swapped = q * recorded("eq14_bernstein_moment", params).rhs.invert_q()
            target = recorded("thm4", params).rhs
            diff = _difference(swapped, target)
            yield VerificationResult(
                "xcheck_eq14_thm4_swap", params, swapped, target, diff.is_zero, diff
            )

    for xtag, multi_tag, base_tag, s in (
        ("xcheck_thm8_thm4", "thm8", "thm4", 1),
        ("xcheck_thm8_thm6", "thm8", "thm6", 2),
        ("xcheck_cor9_cor5", "cor9", "cor5", 1),
        ("xcheck_cor9_cor7", "cor9", "cor7", 2),
    ):
        if base_tag not in ranges:
            continue
        for params in [p for tag, p, _ in case_log if tag == multi_tag and len(p) == s + 1]:
            multi, base = recorded(multi_tag, params), recorded(base_tag, params)
            equal, diff = _first_difference((multi.lhs, base.lhs), (multi.rhs, base.rhs))
            yield VerificationResult(xtag, params, multi.rhs, base.rhs, equal, diff)
