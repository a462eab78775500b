"""Exact arithmetic foundation: rationals, dense polynomials over Q, the
rational-function field Q(q), and polynomials in x with Q(q) coefficients.

Representation conventions used throughout the package:

* Scalars are ``fractions.Fraction`` values (always reduced, denominator
  positive, arbitrary precision).  ``Rational`` is an alias for it.
* ``PolyQ`` is a dense univariate polynomial in the variable q over Q,
  stored as a tuple of Python ints plus one positive integer denominator:
  the coefficient of q**i is ``_ints[i] / _den``.  Trailing zero integers
  are stripped, so the leading coefficient is nonzero and the zero
  polynomial is the empty tuple over 1, and ``_den`` shares no factor
  with the content (gcd) of the ints.  Equal polynomials therefore have
  equal storage.  Arithmetic runs on the ints alone: sums and products
  are integer loops followed by one gcd, division is pseudo-division
  over Z, and the gcd is a primitive remainder sequence over Z.  The
  read-only ``coeffs`` attribute gives the coefficients as a tuple of
  reduced Fractions.
* ``RatFunc`` is an element of Q(q) kept in canonical form: numerator and
  denominator coprime, denominator monic (and hence nonzero).  Zero is
  0/1.  Because the form is canonical, structural equality of two
  RatFunc values is mathematical equality in the field.
* Every value the package computes has a denominator q**a * (1+q)**b
  (E_n(q) = P_n(q)/(1+q)**(n+1) with P_n in Z[q], and the q -> 1/q
  images, Bernstein coefficients and q-power prefactors keep that
  shape).  A RatFunc records (a, b) in a private slot, or None for any
  other denominator.  When both operands of ``+`` or ``*`` carry a form,
  and for ``invert_q`` of one, the result is built without a gcd: the
  integer numerators are lifted to the common denominator by shifts and
  multiplications by 1+q, combined, and then q is cancelled while the
  constant term is 0 and 1+q, by synthetic division, while the
  alternating coefficient sum is 0.  A product by a monomial
  c*q**j / (e*q**a), such as q or 1/q, strips no 1+q: it only cancels q
  and shifts exponents.  Every other operation, ``/`` included, and any
  operand with another denominator, goes through ``RatFunc(num, den)``,
  whose ``poly_gcd`` canonicalisation then detects the form of its
  result once.  The package's own quotients, 1/q, 2/(1+q) and each
  Frobenius scale 1/(u-1), are built once.
* ``_binomial_power`` expands every two-term power (c0 + c1*t)**n by the
  binomial theorem, cached: q**a * (1+q)**b, Bernstein rows, integrands
  in x and the shifts x -> a*x + b of ``XPoly.compose_affine``.
* ``lincomb(coeffs, values)`` is the n-ary sum of c_i * v_i, for the
  integer combinations of q-Euler numbers that every identity is made
  of.  In one pass over the pairs, while each coefficient is an int and
  each value carries a form, it lifts the integer numerators in place
  to the common q**A * (1+q)**B, one Horner pass over the ascending
  (1+q) exponents with each q-shift a plain offset, and strips the sum
  once; ``+`` on two form values is its two-term case.  From the first
  other term on, a Q(q) coefficient included, it goes on by ``+``, ``*``.
* ``XPoly`` is a dense polynomial in a second variable x whose
  coefficients are RatFunc values, with the same trailing-zero
  convention as PolyQ.

All four kinds are immutable and hashable.  JSON serialization keeps
every integer as a decimal string so round-trips never lose precision.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cache, lru_cache
from itertools import chain
from math import comb
from typing import Iterable, Iterator, Sequence, Union

__all__ = [
    "Rational",
    "PoleError",
    "make_rational",
    "binomial",
    "rational_to_json",
    "rational_from_json",
    "PolyQ",
    "poly_gcd",
    "RatFunc",
    "lincomb",
    "XPoly",
    "q",
    "x",
]

Rational = Fraction

ScalarLike = Union[int, Fraction]


class PoleError(ZeroDivisionError):
    """Evaluation of a rational function at a root of its denominator."""


def make_rational(num: int, den: int = 1) -> Fraction:
    """Reduced rational num/den.  A zero denominator raises ZeroDivisionError."""
    return Fraction(num, den)


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); zero when k > n, error on negative input."""
    return comb(n, k)


def rational_to_json(r: Fraction) -> dict:
    return {"num": str(r.numerator), "den": str(r.denominator)}


def rational_from_json(obj: dict) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


def _fraction_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _fraction_latex(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    sign = "-" if c < 0 else ""
    return rf"{sign}\frac{{{abs(c.numerator)}}}{{{c.denominator}}}"


class _Exact:
    """Operators PolyQ, RatFunc and XPoly share, written once.

    Each subclass names its coercion in ``_coerce`` (a scalar or a
    smaller kind in, its own kind or None out) and defines ``is_zero``,
    ``+``, ``*`` and negation; truth, subtraction and powers follow from
    those.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __bool__(self) -> bool:
        return not self.is_zero

    def __sub__(self, other: object):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __pow__(self, n: int):
        """Square and multiply, for n >= 0."""
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if not n:
            return self._coerce(1)
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


def _as_poly_or_none(value: object) -> PolyQ | None:
    if isinstance(value, PolyQ):
        return value
    if isinstance(value, (int, Fraction)):
        return _poly([value.numerator], value.denominator)
    return None


class PolyQ(_Exact):
    """Dense polynomial in q over Q.  See the module docstring for layout."""

    __slots__ = ("_ints", "_den")

    _ints: tuple[int, ...]
    _den: int
    _coerce = staticmethod(_as_poly_or_none)

    def __init__(self, coeffs: Iterable[ScalarLike] = ()):
        cs = list(coeffs)
        if not all(isinstance(c, (int, Fraction)) for c in cs):
            raise TypeError(f"PolyQ coefficients must be int or Fraction: {cs!r}")
        den = math.lcm(1, *(c.denominator for c in cs))
        _store(self, [c.numerator * (den // c.denominator) for c in cs], den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients as reduced Fractions, index i holding that of q**i."""
        den = self._den
        return tuple(Fraction(c, den) for c in self._ints)

    def __reduce__(self):
        return PolyQ, (self.coeffs,)

    @classmethod
    def monomial(cls, degree: int) -> "PolyQ":
        if degree < 0:
            raise ValueError("monomial degree must be nonnegative")
        return cls((0,) * degree + (1,))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self._ints

    @property
    def lead(self) -> Fraction:
        if not self._ints:
            raise ValueError("the zero polynomial has no leading coefficient")
        return Fraction(self._ints[-1], self._den)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PolyQ):
            return self._ints == other._ints and self._den == other._den
        if isinstance(other, (int, Fraction)):
            return self == PolyQ((other,))
        return NotImplemented

    def __hash__(self) -> int:
        if len(self._ints) <= 1:  # equal to a scalar, so hash as one
            return hash(self.lead if self._ints else 0)
        return hash(("PolyQ", self._ints, self._den))

    def __add__(self, other: object) -> "PolyQ":
        other = _as_poly_or_none(other)
        if other is None:
            return NotImplemented
        a, b = self._ints, other._ints
        da, db = self._den, other._den
        if da != db:
            g = math.gcd(da, db)
            sa, sb = db // g, da // g
            a = [c * sa for c in a]
            b = [c * sb for c in b]
            da *= sa
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _poly(out, da)

    __radd__ = __add__

    def __neg__(self) -> "PolyQ":
        return _poly([-c for c in self._ints], self._den)

    def __mul__(self, other: object) -> "PolyQ":
        if isinstance(other, (int, Fraction)):
            num, den = other.numerator, other.denominator
            return _poly([c * num for c in self._ints], self._den * den)
        if not isinstance(other, PolyQ):
            return NotImplemented
        a, b = self._ints, other._ints
        if not a or not b:
            return PolyQ()
        return _poly(_int_mul(a, b), self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "PolyQ":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __divmod__(self, other: "PolyQ") -> tuple["PolyQ", "PolyQ"]:
        if not isinstance(other, PolyQ):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        # scale * ints(self) = quo * ints(other) + rem over Z; divide by
        # scale and the stored denominators to get the quotient over Q.
        quo, rem, scale = _int_divmod(self._ints, other._ints)
        den = scale * self._den
        quo = _poly([c * other._den for c in quo], den)
        return quo, _poly(rem, den)

    def __floordiv__(self, other: "PolyQ") -> "PolyQ":
        return divmod(self, other)[0]

    def __mod__(self, other: "PolyQ") -> "PolyQ":
        return divmod(self, other)[1]

    def divides(self, other: "PolyQ") -> bool:
        """True when self divides other exactly (self nonzero)."""
        return (other % self).is_zero

    def __call__(self, point: ScalarLike) -> Fraction:
        """Evaluate at a rational point a/b by Horner's rule on b**degree * p(a/b)."""
        if not isinstance(point, (int, Fraction)):
            raise TypeError(f"evaluation point must be int or Fraction: {point!r}")
        if not self._ints:
            return Fraction(0)
        a, b = point.numerator, point.denominator
        acc = 0
        bpow = 1
        for c in reversed(self._ints):
            acc = acc * a + c * bpow
            bpow *= b
        return Fraction(acc, self._den * (bpow // b))

    def monic(self) -> "PolyQ":
        if self.is_zero:
            return self
        return _monic(list(self._ints))

    def reverse(self) -> "PolyQ":
        """Coefficient reversal: q**degree * p(1/q), the zero polynomial fixed."""
        return _poly(list(reversed(self._ints)), self._den)

    def to_json(self) -> list:
        return [rational_to_json(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, obj: Sequence[dict]) -> "PolyQ":
        return cls(tuple(rational_from_json(c) for c in obj))

    def __str__(self) -> str:
        return self._render(_fraction_str, lambda i: "q" if i == 1 else f"q^{i}", "*")

    def latex(self) -> str:
        return self._render(
            _fraction_latex, lambda i: "q" if i == 1 else f"q^{{{i}}}", " "
        )

    def _render(self, scalar, power, times: str) -> str:
        """Nonzero terms from the top degree down, each sign pulled out front.

        ``scalar`` renders a positive coefficient, ``power(i)`` the
        monomial q^i for i >= 1, and ``times`` joins the two.
        """
        if self.is_zero:
            return "0"
        coeffs = self.coeffs
        parts: list[str] = []
        for i in range(self.degree, -1, -1):
            c = coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = scalar(mag)
            else:
                body = power(i) if mag == 1 else f"{scalar(mag)}{times}{power(i)}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def _store(p: PolyQ, ints: list[int], den: int) -> PolyQ:
    """Give p the value ints/den (den > 0) in normalised storage; return p.

    Trailing zeros are stripped and the denominator shares no factor with
    the content of the integers, so equal polynomials store equal values.
    """
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        den = 1
    elif den != 1:
        g = math.gcd(den, *ints)
        if g != 1:
            ints = [c // g for c in ints]
            den //= g
    object.__setattr__(p, "_ints", tuple(ints))
    object.__setattr__(p, "_den", den)
    return p


def _poly(ints: list[int], den: int) -> PolyQ:
    """A new PolyQ of value ints/den (den > 0)."""
    return _store(object.__new__(PolyQ), ints, den)


def _int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two nonempty integer coefficient lists."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        c = a[0]
        return [c * d for d in b]
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                out[j] += ai * bj
    return out


@lru_cache(maxsize=None, typed=True)
def _binomial_power(c0: object, c1: object, n: int) -> tuple:
    """(c0 + c1*t)**n by the binomial theorem: C(n, j) c0**(n-j) c1**j at index j.

    c0 and c1 are exact scalars or in Q(q).  The cache is typed, because 1,
    Fraction(1) and RatFunc(1) hash alike: int arguments get an int row.
    """
    return tuple(comb(n, j) * c0 ** (n - j) * c1**j for j in range(n + 1))


def _monic(ints: list[int]) -> PolyQ:
    """The monic multiple of the nonzero integer polynomial ints."""
    lead = ints[-1]
    if lead < 0:
        ints = [-c for c in ints]
        lead = -lead
    return _poly(ints, lead)


def _int_divmod(u: Sequence[int], v: Sequence[int]) -> tuple[list[int], list[int], int]:
    """Division of u by nonzero v over Z, scaled only where it must be.

    Returns (quo, rem, scale) with scale > 0, scale * u = quo * v + rem and
    deg rem < deg v.  A step multiplies the running remainder by the part
    of lead(v) that does not divide its top coefficient, so scale is 1
    exactly when v divides u with an integer quotient.
    """
    rem = list(u)
    dv = len(v) - 1
    lead = v[-1]
    quo = [0] * max(len(rem) - dv, 0)
    scale = 1
    for top in range(len(rem) - 1, dv - 1, -1):
        coef = rem.pop()
        if not coef:
            continue
        g = math.gcd(coef, lead)
        if lead < 0:
            g = -g
        m = lead // g
        if m != 1:
            rem = [m * c for c in rem]
            quo = [m * c for c in quo]
            scale *= m
        factor = coef // g
        shift = top - dv
        quo[shift] = factor
        rem[shift:] = [r - factor * c for r, c in zip(rem[shift:], v)]
    while rem and not rem[-1]:
        rem.pop()
    return quo, rem, scale


def _exact_quotient(u: Sequence[int], v: Sequence[int]) -> list[int]:
    """u / v over Z, for a v known to divide u with an integer quotient."""
    quo, rem, scale = _int_divmod(u, v)
    if rem or scale != 1:
        raise ArithmeticError("inexact division in rational function canonicalisation")
    return quo


def _as_poly(value: object) -> PolyQ:
    poly = _as_poly_or_none(value)
    if poly is None:
        raise TypeError(f"cannot interpret {value!r} as a polynomial over Q")
    return poly


def poly_gcd(a: PolyQ, b: PolyQ) -> PolyQ:
    """Monic gcd of two polynomials over Q; gcd(0, 0) is 0.

    Runs the primitive polynomial remainder sequence on the stored
    integer coefficients, so no rational arithmetic is needed.
    """
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    u, v = a._ints, b._ints
    if len(u) < len(v):
        u, v = v, u
    while len(v) > 1:
        r = _int_divmod(u, v)[1]
        if not r:
            break
        content = math.gcd(*r)
        u, v = v, [c // content for c in r]
    return _monic(list(v))


def _as_ratfunc_or_none(value: object) -> RatFunc | None:
    if isinstance(value, RatFunc):
        return value
    if isinstance(value, (int, Fraction)):
        return _ratfunc(_poly([value.numerator], value.denominator), _ONE_DEN, (0, 0))
    if isinstance(value, PolyQ):
        return RatFunc(value)
    return None


@cache
def _form_den(a: int, b: int) -> PolyQ:
    """The polynomial q**a * (1+q)**b, built once per (a, b)."""
    return _poly([0] * a + [*_binomial_power(1, 1, b)], 1)


_ONE_DEN = _form_den(0, 0)


def _denominator_form(den: PolyQ) -> tuple[int, int] | None:
    """(a, b) when the monic den is q**a * (1+q)**b, else None."""
    ints = den._ints
    a = 0
    while not ints[a]:
        a += 1
    b = len(ints) - 1 - a
    # (1+q)**b starts 1, b, ...; test that much before building the row.
    if ints[a] != 1 or (b and ints[a + 1] != b) or ints != _form_den(a, b)._ints:
        return None
    return a, b


def _ratfunc(num: PolyQ, den: PolyQ, form: tuple[int, int] | None) -> RatFunc:
    """The RatFunc num/den of parts already canonical, den's form given."""
    out = object.__new__(RatFunc)
    object.__setattr__(out, "num", num)
    object.__setattr__(out, "den", den)
    object.__setattr__(out, "_form", form)
    return out


#: One term of a sum over forms: (ints, mult, den, a, b) is the value
#: mult * ints / (den * q**a * (1+q)**b), with den > 0.
_FormTerm = tuple[Sequence[int], int, int, int, int]
_FORM_B = operator.itemgetter(4)


def _sum_over_forms(terms: list[_FormTerm]) -> RatFunc:
    """The canonical sum of the nonempty list of terms, without a gcd.

    Every numerator is lifted to the common q**A * (1+q)**B in one Horner
    pass over the (1+q) exponents: the terms are taken in ascending b,
    the running sum is multiplied by 1+q in place (a zero appended, then
    each entry gains its lower neighbour, from the top down) as b rises,
    and each term is added in place at the offset A - a, so a factor q
    costs nothing.  The common integer denominator is 1, with no lcm,
    when every term's is.  The sum is stripped once, by ``_over_form``.
    """
    terms.sort(key=_FORM_B)
    a_top, scale = 0, 1
    for _, _, den, a, _ in terms:
        if a > a_top:
            a_top = a
        if den != 1:
            scale = math.lcm(scale, den)
    acc: list[int] = []
    level = terms[0][4]
    for ints, mult, den, a, b in terms:
        for _ in range(b - level):
            acc.append(0)
            for i in range(len(acc) - 1, 0, -1):
                acc[i] += acc[i - 1]
        level = b
        if den != scale:
            mult *= scale // den
        start = a_top - a
        missing = start + len(ints) - len(acc)
        if missing > 0:
            acc.extend([0] * missing)
        for i, c in enumerate(ints, start):
            acc[i] += mult * c
    return _over_form(acc, scale, a_top, level)


def lincomb(coeffs: Iterable[object], values: Iterable[object]) -> RatFunc:
    """The exact sum of c * v over the pairs of coeffs and values.

    Each coefficient is an int or an element of Q(q), each value an
    element of Q(q); both sequences have the same length.  The pairs are
    read once: while each has an int coefficient and a RatFunc value with
    denominator q**a * (1+q)**b its nonzero term is kept for
    ``_sum_over_forms``, one lift and one strip in all.  From the first
    other pair on, the sum of the terms kept so far is extended by the
    left fold of ``+`` and ``*``.  The result is the same either way.
    """
    terms: list[_FormTerm] = []
    pairs = zip(coeffs, values, strict=True)
    rest: Iterable[tuple[object, object]] = ()
    for c, v in pairs:
        if type(c) is not int or type(v) is not RatFunc or v._form is None:
            rest = chain([(c, v)], pairs)
            break
        num = v.num
        if c and num._ints:
            terms.append((num._ints, c, num._den, *v._form))
    acc = _sum_over_forms(terms) if terms else _ZERO
    for c, v in rest:
        acc = acc + (c if type(c) is int else _as_ratfunc(c)) * _as_ratfunc(v)
    return acc


def _over_form(ints: list[int], scale: int, a: int, b: int) -> RatFunc:
    """The canonical RatFunc (ints/scale) / (q**a * (1+q)**b), for scale > 0.

    No gcd is needed: the only factors ints can share with the
    denominator are q, cancelled while the constant term is 0, and 1+q,
    cancelled by synthetic division while the alternating sum is 0.
    """
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        return _ZERO
    low = 0
    while low < a and not ints[low]:
        low += 1
    if low:
        ints = ints[low:]
        a -= low
    while b and sum(ints[::2]) == sum(ints[1::2]):
        carry = 0
        quo = []
        for c in ints[:-1]:
            carry = c - carry
            quo.append(carry)
        ints = quo
        b -= 1
    return _ratfunc(_poly(ints, scale), _form_den(a, b), (a, b))


class RatFunc(_Exact):
    """Element of Q(q) in canonical form (coprime parts, monic denominator).

    The private ``_form`` is (a, b) when the denominator is
    q**a * (1+q)**b and None otherwise; it selects the gcd-free
    arithmetic and takes no part in equality or hashing.  A product with
    a form value c*q**j / (e*q**a), one nonzero coefficient over b = 0,
    only shifts exponents (``_times_monomial``).
    """

    __slots__ = ("num", "den", "_form")

    num: PolyQ
    den: PolyQ
    _form: tuple[int, int] | None
    _coerce = staticmethod(_as_ratfunc_or_none)

    def __init__(self, num: object = 0, den: object = 1):
        if isinstance(num, RatFunc) or isinstance(den, RatFunc):
            if not (isinstance(den, int) and den == 1):
                raise TypeError("RatFunc parts must be polynomials or scalars")
            source = num
            object.__setattr__(self, "num", source.num)
            object.__setattr__(self, "den", source.den)
            object.__setattr__(self, "_form", source._form)
            return
        n = _as_poly(num)
        d = _as_poly(den)
        if d.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if n.is_zero:
            object.__setattr__(self, "num", PolyQ())
            object.__setattr__(self, "den", _ONE_DEN)
            object.__setattr__(self, "_form", (0, 0))
            return
        # n/d = (nu/n_den) / (du/d_den) = (nu * d_den) / (du * n_den).
        nu, du = n._ints, d._ints
        if len(nu) > 1 and len(du) > 1:
            g = poly_gcd(n, d)
            if g.degree > 0:
                # g is monic with primitive integer part, so by Gauss's
                # lemma both quotients have integer coefficients.
                nu = _exact_quotient(nu, g._ints)
                du = _exact_quotient(du, g._ints)
        lead = du[-1]
        scale = d._den if lead > 0 else -d._den
        den = _monic(list(du))
        object.__setattr__(self, "num", _poly([c * scale for c in nu], n._den * abs(lead)))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_form", _denominator_form(den))

    def __reduce__(self):
        return RatFunc, (self.num, self.den)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    def as_fraction(self) -> Fraction:
        """The value as a rational number; only valid for constants."""
        if not self.is_constant:
            raise ValueError(f"{self} is not a constant")
        return self.num.coeffs[0] if self.num.coeffs else Fraction(0)

    def __eq__(self, other: object) -> bool:
        other = _as_ratfunc_or_none(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        if self.den.degree == 0:  # a polynomial: hash as one
            return hash(self.num)
        return hash(("RatFunc", self.num, self.den))

    def __add__(self, other: object) -> "RatFunc":
        other = _as_ratfunc_or_none(other)
        if other is None:
            return NotImplemented
        f, g = self._form, other._form
        if f is None or g is None:
            return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)
        a, b = self.num, other.num
        return _sum_over_forms([(a._ints, 1, a._den, *f), (b._ints, 1, b._den, *g)])

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return _ratfunc(-self.num, self.den, self._form)

    def __mul__(self, other: object) -> "RatFunc":
        if type(other) is int:  # a nonzero integer keeps the denominator
            return _ratfunc(self.num * other, self.den, self._form) if other else _ZERO
        other = _as_ratfunc_or_none(other)
        if other is None:
            return NotImplemented
        f, g = self._form, other._form
        if f is None or g is None:
            return RatFunc(self.num * other.num, self.den * other.den)
        a, b = self.num, other.num
        if a.is_zero or b.is_zero:
            return _ZERO
        if not g[1] and b._ints.count(0) == len(b._ints) - 1:
            return _times_monomial(a, f, b, g[0])
        if not f[1] and a._ints.count(0) == len(a._ints) - 1:
            return _times_monomial(b, g, a, f[0])
        return _over_form(_int_mul(a._ints, b._ints), a._den * b._den, f[0] + g[0], f[1] + g[1])

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "RatFunc":
        other = _as_ratfunc_or_none(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other: object) -> "RatFunc":
        other = _as_ratfunc_or_none(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> "RatFunc":
        """Square and multiply through ``*``; a negative n inverts once."""
        return _Exact.__pow__(self if n >= 0 else 1 / self, abs(n))

    def invert_q(self) -> "RatFunc":
        """The image under q -> 1/q, canonicalized.

        Both parts are coefficient-reversed (p -> q**deg(p) * p(1/q)) and the
        leftover power q**(deg den - deg num) lands on whichever side keeps
        exponents nonnegative.
        """
        if self.is_zero:
            return self
        if self._form is not None:
            # (N/c) / (q**a (1+q)**b) -> q**(a+b-deg N) rev(N) / (c (1+q)**b).
            a, b = self._form
            rev = list(reversed(self.num._ints))
            shift = a + b - self.num.degree
            if shift >= 0:
                return _over_form([0] * shift + rev, self.num._den, 0, b)
            return _over_form(rev, self.num._den, -shift, b)
        shift = self.den.degree - self.num.degree
        num = self.num.reverse()
        den = self.den.reverse()
        if shift >= 0:
            num = num * PolyQ.monomial(shift)
        else:
            den = den * PolyQ.monomial(-shift)
        return RatFunc(num, den)

    def __call__(self, point: ScalarLike) -> Fraction:
        """Evaluate at a rational point; raises PoleError on a denominator root."""
        dval = self.den(point)
        if dval == 0:
            raise PoleError(f"{point} is a pole of {self}")
        return self.num(point) / dval

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "RatFunc":
        return cls(PolyQ.from_json(obj["num"]), PolyQ.from_json(obj["den"]))

    def __str__(self) -> str:
        if self.den == PolyQ((1,)):
            return str(self.num)
        num = str(self.num)
        if self.num.degree > 0:
            num = f"({num})"
        return f"{num} / ({self.den})"

    def latex(self) -> str:
        if self.den == PolyQ((1,)):
            return self.num.latex()
        return rf"\frac{{{self.num.latex()}}}{{{self.den.latex()}}}"


_ZERO = _ratfunc(PolyQ(), _ONE_DEN, (0, 0))


def _times_monomial(num: PolyQ, form: tuple[int, int], mono: PolyQ, a: int) -> RatFunc:
    """num / (q**form[0] * (1+q)**form[1]) times the monomial mono / q**a.

    num/den is canonical, so it has no factor 1+q to cancel, and the
    monomial adds none: only q cancels, as far as the low zeros of the
    product numerator and the exponent of q allow.
    """
    ints = num._ints
    low = 0
    while not ints[low]:
        low += 1
    zeros = low + len(mono._ints) - 1
    cancel = min(zeros, form[0] + a)
    out = [0] * (zeros - cancel) + [mono._ints[-1] * d for d in ints[low:]]
    a += form[0] - cancel
    return _ratfunc(_poly(out, num._den * mono._den), _form_den(a, form[1]), (a, form[1]))


def _as_ratfunc(value: object) -> RatFunc:
    rf = _as_ratfunc_or_none(value)
    if rf is None:
        raise TypeError(f"cannot interpret {value!r} as an element of Q(q)")
    return rf


def _as_xpoly_or_none(value: object) -> XPoly | None:
    if isinstance(value, XPoly):
        return value
    scalar = _as_ratfunc_or_none(value)
    if scalar is not None:
        return XPoly((scalar,))
    return None


class XPoly(_Exact):
    """Dense polynomial in x with RatFunc coefficients."""

    __slots__ = ("coeffs",)

    coeffs: tuple[RatFunc, ...]
    _coerce = staticmethod(_as_xpoly_or_none)

    def __init__(self, coeffs: Iterable[object] = ()):
        cs = [c if isinstance(c, RatFunc) else _as_ratfunc(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __reduce__(self):
        return XPoly, (self.coeffs,)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> RatFunc:
        """Coefficient of x**i (zero beyond the degree)."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return RatFunc(0)

    def __eq__(self, other: object) -> bool:
        other = _as_xpoly_or_none(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        if len(self.coeffs) <= 1:  # equal to its constant term
            return hash(self.coeff(0))
        return hash(("XPoly", self.coeffs))

    def __add__(self, other: object) -> "XPoly":
        other = _as_xpoly_or_none(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return XPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "XPoly":
        return XPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: object) -> "XPoly":
        scalar = _as_ratfunc_or_none(other)
        if scalar is not None:
            if scalar.is_zero:
                return XPoly()
            return XPoly(tuple(c * scalar for c in self.coeffs))
        if not isinstance(other, XPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return XPoly()
        zero = RatFunc(0)
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a.is_zero:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
        return XPoly(out)

    __rmul__ = __mul__

    def __call__(self, point: object) -> RatFunc:
        """Evaluate by Horner's rule; the point may be any Q(q) element."""
        point = _as_ratfunc(point)
        acc = RatFunc(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def compose_affine(self, a: object, b: object) -> "XPoly":
        """Substitution x -> a*x + b, a and b exact scalars or in Q(q).

        Coefficient j is one ``lincomb`` of the c_i against entry j of the
        rows ``_binomial_power(b, a, i)``, gcd-free for int a and b.
        """
        _as_ratfunc(a), _as_ratfunc(b)  # a float shift raises TypeError
        cs = self.coeffs
        rows = [_binomial_power(b, a, i) for i in range(len(cs))]
        return XPoly(lincomb([row[j] for row in rows[j:]], cs[j:]) for j in range(len(cs)))

    def invert_q(self) -> "XPoly":
        """Apply q -> 1/q to every coefficient."""
        return XPoly(tuple(c.invert_q() for c in self.coeffs))

    def to_json(self) -> list:
        return [c.to_json() for c in self.coeffs]

    @classmethod
    def from_json(cls, obj: Sequence[dict]) -> "XPoly":
        return cls(tuple(RatFunc.from_json(c) for c in obj))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c.is_zero:
                continue
            if i == 0:
                body = str(c)
            else:
                var = "x" if i == 1 else f"x^{i}"
                body = var if c == RatFunc(1) else f"({c})*{var}"
            parts.append(body)
        return " + ".join(parts)


#: The generator q of Q(q).
q = RatFunc(PolyQ((0, 1)))

#: The variable x as an XPoly.
x = XPoly((0, 1))
