"""Exact arithmetic layer: canonical forms, field laws, serialization."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qeuler.exactalg import (
    PoleError,
    PolyQ,
    RatFunc,
    XPoly,
    binomial,
    make_rational,
    _binomial_power,
    _denominator_form,
    _exact_quotient,
    _form_den,
    lincomb,
    poly_gcd,
    q,
    rational_from_json,
    rational_to_json,
    x,
)


def test_make_rational_reduces():
    r = make_rational(2, 4)
    assert r.numerator == 1 and r.denominator == 2
    assert make_rational(-6, -4) == Fraction(3, 2)


def test_make_rational_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        make_rational(1, 0)


def test_binomial_values():
    assert binomial(4, 2) == 6
    assert binomial(5, 7) == 0
    assert binomial(0, 0) == 1
    with pytest.raises(ValueError):
        binomial(-1, 0)
    with pytest.raises(ValueError):
        binomial(3, -1)


def test_rational_json_uses_decimal_strings():
    r = Fraction(10**40 + 1, 3)
    obj = rational_to_json(r)
    assert obj == {"num": str(10**40 + 1), "den": "3"}
    assert rational_from_json(obj) == r


@pytest.mark.parametrize("bad", [0.1, 0.0, "1/3", 1j, None])
def test_only_int_and_fraction_scalars_are_accepted(bad):
    with pytest.raises(TypeError):
        PolyQ((1, bad))
    with pytest.raises(TypeError):
        RatFunc(bad)
    with pytest.raises(TypeError):
        XPoly((bad,))
    with pytest.raises(TypeError):
        PolyQ((0, 1))(bad)
    with pytest.raises(TypeError):
        (2 / (1 + q))(bad)


def test_polyq_trims_trailing_zeros():
    p = PolyQ((1, 2, 0, 0))
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert p.degree == 1
    assert PolyQ((0, 0)).is_zero
    assert PolyQ().degree == -1


def test_polyq_divmod():
    a = PolyQ((-1, 0, 1))  # q^2 - 1
    b = PolyQ((1, 1))  # q + 1
    quo, rem = divmod(a, b)
    assert quo == PolyQ((-1, 1))
    assert rem.is_zero


def test_poly_gcd_is_monic():
    a = PolyQ((-2, 0, 2))  # 2q^2 - 2
    b = PolyQ((1, 2, 1))  # (q+1)^2
    assert poly_gcd(a, b) == PolyQ((1, 1))
    assert poly_gcd(PolyQ(), PolyQ()).is_zero
    assert poly_gcd(a, PolyQ()) == a.monic()


def test_polyq_reverse():
    p = PolyQ((0, 1))  # q
    assert p.reverse() == PolyQ((1,))
    assert PolyQ((1, 2, 3)).reverse() == PolyQ((3, 2, 1))
    assert PolyQ().reverse().is_zero


def test_ratfunc_canonical_form():
    f = RatFunc(PolyQ((2, 2)), PolyQ((1, 2, 1)))  # (2q+2)/(q+1)^2
    assert f == 2 / (1 + q)
    assert f.den == PolyQ((1, 1))
    g = RatFunc(PolyQ((1,)), PolyQ((0, 2)))  # 1/(2q): denominator made monic
    assert g.den == PolyQ((0, 1))
    assert g.num == PolyQ((Fraction(1, 2),))


def test_ratfunc_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        RatFunc(1, PolyQ())


def test_ratfunc_addition_example():
    a = 1 / (1 + q)
    b = (3 * q + 1) / (q + 1) ** 2
    assert a + b == (4 * q + 2) / (q + 1) ** 2


def test_ratfunc_invert_q_examples():
    assert (2 / (1 + q)).invert_q() == (2 * q) / (1 + q)
    assert q.invert_q() == q**-1
    assert RatFunc(0).invert_q().is_zero
    assert RatFunc(7).invert_q() == RatFunc(7)


def test_ratfunc_eval_and_pole():
    f = 2 / (1 + q)
    assert f(1) == 1
    assert f(Fraction(1, 2)) == Fraction(4, 3)
    with pytest.raises(PoleError):
        f(-1)


def test_ratfunc_negative_power():
    assert q**-2 == 1 / q**2
    with pytest.raises(ZeroDivisionError):
        RatFunc(0) ** -1


def test_xpoly_basics():
    p = (1 - x) ** 2
    assert p.coeffs == (RatFunc(1), RatFunc(-2), RatFunc(1))
    assert p(Fraction(1, 2)) == RatFunc(Fraction(1, 4))
    assert p.compose_affine(-1, 1) == x**2


def test_xpoly_eval_in_qq():
    p = x * q + 1
    v = p(1 / q)
    assert v == RatFunc(2)


def test_xpoly_invert_q_coefficientwise():
    p = XPoly((2 / (1 + q), q))
    assert p.invert_q() == XPoly(((2 * q) / (1 + q), 1 / q))


@pytest.mark.parametrize("coeffs", [(), (1,), (-1,), (Fraction(1, 2),), (0, 1)])
def test_equal_values_hash_equal_across_kinds(coeffs):
    poly = PolyQ(coeffs)
    forms = [poly, RatFunc(poly), XPoly((RatFunc(poly),))]
    if poly.degree <= 0:
        forms.append(poly.lead if coeffs else 0)
    for a in forms:
        for b in forms:
            assert a == b
            assert hash(a) == hash(b)
    assert len(set(forms)) == 1
    assert {forms[-1]: "value"}.get(forms[0]) == "value"


def test_json_round_trips():
    f = (4 * q + 2) / (q + 1) ** 2
    assert RatFunc.from_json(f.to_json()) == f
    p = PolyQ((Fraction(1, 3), 0, -2))
    assert PolyQ.from_json(p.to_json()) == p
    xp = XPoly((f, RatFunc(0), q))
    assert XPoly.from_json(xp.to_json()) == xp
    assert XPoly.from_json(XPoly().to_json()).is_zero


# -- property tests ----------------------------------------------------------

small_fractions = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
)


@st.composite
def polys(draw, max_degree=3):
    coeffs = draw(st.lists(small_fractions, max_size=max_degree + 1))
    return PolyQ(coeffs)


@st.composite
def ratfuncs(draw):
    num = draw(polys())
    den = draw(polys().filter(lambda p: not p.is_zero))
    return RatFunc(num, den)


@given(polys(), polys().filter(lambda p: not p.is_zero))
def test_polyq_divmod_reconstructs(a, b):
    quo, rem = divmod(a, b)
    assert quo * b + rem == a
    assert rem.degree < b.degree


@given(polys(), polys())
def test_poly_gcd_divides_both(a, b):
    g = poly_gcd(a, b)
    if g.is_zero:
        assert a.is_zero and b.is_zero
    else:
        assert g.lead == 1
        assert (a % g).is_zero
        assert (b % g).is_zero


@settings(max_examples=60)
@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_ratfunc_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a - a == RatFunc(0)
    if not b.is_zero:
        assert (a / b) * b == a


@given(ratfuncs())
def test_ratfunc_invert_q_involution(f):
    assert f.invert_q().invert_q() == f


@given(ratfuncs(), st.fractions(min_value=Fraction(1, 5), max_value=Fraction(7), max_denominator=5))
def test_ratfunc_invert_q_matches_eval(f, r):
    try:
        expected = f(1 / r)
    except PoleError:
        return
    assert f.invert_q()(r) == expected


@given(ratfuncs())
def test_ratfunc_canonical_is_idempotent(f):
    assert RatFunc(f.num, f.den) == f
    assert f.den.lead == 1
    if not f.is_zero:
        assert poly_gcd(f.num, f.den) == PolyQ((1,))


@given(ratfuncs())
def test_ratfunc_json_round_trip(f):
    assert RatFunc.from_json(f.to_json()) == f


@given(st.lists(small_fractions, max_size=4))
def test_xpoly_compose_identity(coeffs):
    p = XPoly(coeffs)
    assert p.compose_affine(1, 0) == p
    assert p.compose_affine(-1, 1).compose_affine(-1, 1) == p


def _value_or_none(f, point):
    try:
        return f(point)
    except PoleError:
        return None


@settings(max_examples=80)
@given(ratfuncs(), ratfuncs(),
       st.fractions(min_value=Fraction(-5), max_value=Fraction(5),
                    max_denominator=7).filter(lambda r: r not in (0, -1)))
def test_ratfunc_arithmetic_commutes_with_evaluation(a, b, q0):
    va, vb = _value_or_none(a, q0), _value_or_none(b, q0)
    if va is None or vb is None:
        return
    assert (a + b)(q0) == va + vb
    assert (a - b)(q0) == va - vb
    assert (a * b)(q0) == va * vb
    assert (-a)(q0) == -va
    if vb != 0:
        assert (a / b)(q0) == va / vb
    inverse = _value_or_none(a, 1 / q0)
    if inverse is not None:
        assert a.invert_q()(q0) == inverse


def test_polyq_equal_values_have_equal_storage():
    a = PolyQ((Fraction(2, 4), Fraction(3, 4)))
    b = PolyQ((1, Fraction(3, 2))) * Fraction(1, 2)
    assert a == b == PolyQ((4, 6)) * Fraction(1, 8)
    assert hash(a) == hash(b) == hash(PolyQ((4, 6)) * Fraction(1, 8))
    assert a.coeffs == b.coeffs == (Fraction(1, 2), Fraction(3, 4))
    assert all(type(c) is Fraction for c in a.coeffs + b.coeffs)
    assert RatFunc(1, PolyQ((1, 2))).den.coeffs == (Fraction(1, 2), Fraction(1))


def test_exact_quotient_refuses_a_remainder():
    assert _exact_quotient([-1, 0, 1], [1, 1]) == [-1, 1]
    with pytest.raises(ArithmeticError):
        _exact_quotient([1, 0, 1], [1, 1])
    with pytest.raises(ArithmeticError):
        _exact_quotient([1, 1], [0, 2])


# -- gcd-free arithmetic over q^a (1+q)^b against the general gcd ------------

#: q^2 + 3 shares no factor with q(1+q), so its values take the general path.
GENERAL_DEN = PolyQ((3, 0, 1))


def test_form_den_is_q_power_times_one_plus_q_power():
    for a in range(7):
        for b in range(7):
            assert _form_den(a, b) == PolyQ.monomial(a) * PolyQ((1, 1)) ** b
            assert _denominator_form(_form_den(a, b)) == (a, b)


@st.composite
def form_operands(draw):
    """An integer numerator over q^a (1+q)^b (a, b <= 6), now and then over
    q^2 + 3, canonicalised through RatFunc(num, den).  The numerator gets
    extra factors q and 1+q so that sums and products have some to cancel."""
    num = PolyQ(draw(st.lists(st.integers(-9, 9), max_size=6)))
    num = num * PolyQ.monomial(draw(st.integers(0, 2))) * PolyQ((1, 1)) ** draw(st.integers(0, 2))
    num = num * Fraction(1, draw(st.integers(1, 4)))
    if draw(st.integers(0, 4)) == 0:
        den = GENERAL_DEN
    else:
        den = PolyQ.monomial(draw(st.integers(0, 6))) * PolyQ((1, 1)) ** draw(st.integers(0, 6))
    return RatFunc(num, den)


def _assert_same_storage(value, reference):
    assert (value.num._ints, value.num._den, value.den._ints, value.den._den) == (
        reference.num._ints, reference.num._den, reference.den._ints, reference.den._den)
    assert value._form == _denominator_form(value.den)


@settings(max_examples=200)
@given(form_operands(), form_operands(), st.integers(-3, 4))
def test_denominator_form_path_matches_general_canonicalisation(f, g, e):
    n1, d1, n2, d2 = f.num, f.den, g.num, g.den
    _assert_same_storage(f + g, RatFunc(n1 * d2 + n2 * d1, d1 * d2))
    _assert_same_storage(f - g, RatFunc(n1 * d2 - n2 * d1, d1 * d2))
    _assert_same_storage(f * g, RatFunc(n1 * n2, d1 * d2))
    _assert_same_storage(e * f, RatFunc(n1 * e, d1))
    _assert_same_storage(-f, RatFunc(-n1, d1))
    if not g.is_zero:
        _assert_same_storage(f / g, RatFunc(n1 * d2, d1 * n2))
    # f(1/q) = rev(n1) q^(deg d1 - deg n1) / rev(d1).
    shift = d1.degree - n1.degree
    _assert_same_storage(f.invert_q(), RatFunc(
        n1.reverse() * PolyQ.monomial(max(shift, 0)),
        d1.reverse() * PolyQ.monomial(max(-shift, 0))))
    if e >= 0:
        _assert_same_storage(f**e, RatFunc(n1**e, d1**e))
    elif not f.is_zero:
        _assert_same_storage(f**e, RatFunc(d1 ** -e, n1 ** -e))
    else:
        with pytest.raises(ZeroDivisionError):
            f**e


@st.composite
def form_divisors(draw):
    """c q^j (1+q)^i / (e q^a (1+q)^b), c = 0 now and then, canonicalised
    through RatFunc(num, den): the shape of the divisors in the closed forms."""
    num = (PolyQ((draw(st.integers(-4, 4)),)) * PolyQ.monomial(draw(st.integers(0, 4)))
           * PolyQ((1, 1)) ** draw(st.integers(0, 4)) * Fraction(1, draw(st.integers(1, 4))))
    den = PolyQ.monomial(draw(st.integers(0, 6))) * PolyQ((1, 1)) ** draw(st.integers(0, 6))
    return RatFunc(num, den)


@settings(max_examples=300)
@given(form_operands(), form_divisors())
def test_division_by_a_form_numerator_matches_general_canonicalisation(f, g):
    if g.is_zero:
        with pytest.raises(ZeroDivisionError):
            f / g
        return
    _assert_same_storage(f / g, RatFunc(f.num * g.den, f.den * g.num))


@st.composite
def monomials(draw):
    """c q^j / (e q^a), c = 0 now and then, canonicalised through
    RatFunc(num, den): the shape of q, 1/q and q**qshift."""
    num = PolyQ((Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 4))),))
    num = num * PolyQ.monomial(draw(st.integers(0, 4)))
    return RatFunc(num, PolyQ.monomial(draw(st.integers(0, 4))))


@settings(max_examples=300)
@given(monomials(), form_operands())
@example(1 / q, q / (1 + q))  # a q cancels against a zero constant term
@example(1 / q, q * q)
@example(q, 1 / q)
@example(RatFunc(0), 1 / q)
@example(q, RatFunc(0))
def test_products_by_a_monomial_match_general_canonicalisation(m, f):
    product = RatFunc(m.num * f.num, m.den * f.den)
    _assert_same_storage(m * f, product)
    _assert_same_storage(f * m, product)


# -- the n-ary sum against the left fold of + and * ---------------------------


@st.composite
def lincomb_operands(draw):
    """Coefficients (ints or form_operands values) and values (form_operands),
    with zero terms.  Now and then the values come in descending b, as the
    closed forms list E_{n-j}, or with numerators over 2, 3 or 6, so the
    common integer denominator is not 1, or with an int or Fraction value
    mid-list, which ends the gcd-free pass; and now and then a last value
    cancels the sum so far down to a numerator with factors q and 1+q."""
    values = draw(st.lists(form_operands(), max_size=5))
    if draw(st.booleans()):
        values.sort(key=lambda v: v._form[1] if v._form else -1, reverse=True)
    values = [v * Fraction(1, draw(st.sampled_from([1, 2, 3, 6]))) for v in values]
    if values and draw(st.booleans()):
        scalar = draw(st.one_of(st.integers(-3, 3), small_fractions))
        values.insert(draw(st.integers(0, len(values))), scalar)
    coeffs = [draw(st.one_of(st.integers(-3, 3), form_operands())) for _ in values]
    if values and draw(st.booleans()):
        target = draw(form_operands())
        values.append(target - _fold(coeffs, values))
        coeffs.append(1)
    return coeffs, values


def _fold(coeffs, values):
    acc = RatFunc(0)
    for c, v in zip(coeffs, values):
        acc = acc + c * v
    return acc


@settings(max_examples=200, deadline=None)
@given(lincomb_operands())
def test_lincomb_matches_left_fold(operands):
    coeffs, values = operands
    total = lincomb(coeffs, values)
    _assert_same_storage(total, _fold(coeffs, values))
    # and the same sum canonicalised once through RatFunc(num, den)
    num, den = PolyQ(), PolyQ((1,))
    for c, v in zip(coeffs, values):
        c, v = RatFunc(c), RatFunc(v)
        num, den = num * c.den * v.den + c.num * v.num * den, den * c.den * v.den
    _assert_same_storage(total, RatFunc(num, den))


def test_lincomb_edge_cases():
    assert lincomb([], []) == 0
    assert lincomb([0, 2], [q, RatFunc(0)]) == 0
    # 1/(1+q) + q/(1+q) = 1: a (1+q) strip; q/(q(1+q)) - 1/(1+q) = 0
    half = RatFunc(1, PolyQ((1, 1)))
    _assert_same_storage(lincomb([1, q], [half, half]), RatFunc(1))
    _assert_same_storage(lincomb([1, -1], [q / (q * (1 + q)), half]), RatFunc(0))
    # coefficients may be Fractions; values ints
    assert lincomb([Fraction(1, 2), 3], [4, q]) == 2 + 3 * q
    with pytest.raises(ValueError):
        lincomb([1, 2], [q])


# -- shifts x -> a*x + b from binomial rows ---------------------------------


def _horner_compose(p, a, b):
    """p(a*x + b) by Horner's rule on XPoly products."""
    acc = XPoly()
    for c in reversed(p.coeffs):
        acc = acc * XPoly((b, a)) + XPoly((c,))
    return acc


@pytest.mark.parametrize("a, b", [
    (-1, 1), (1, 0), (2, -3), (Fraction(1, 2), Fraction(-2, 3)), (q, 1 / (1 + q)),
])
@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(ratfuncs(), form_operands()), max_size=7))
def test_compose_affine_matches_horner(a, b, coeffs):
    p = XPoly(coeffs)
    assert p.compose_affine(a, b) == _horner_compose(p, a, b)


@pytest.mark.parametrize("p", [XPoly(), x**2 + q])
@pytest.mark.parametrize("a, b", [(0.5, 1), (-1, 1.0)])
def test_compose_affine_refuses_a_float_shift(p, a, b):
    with pytest.raises(TypeError):
        p.compose_affine(a, b)


def test_binomial_power_cache_is_typed():
    # 1, Fraction(1) and RatFunc(1) hash alike, so an untyped cache would
    # hand the int call the RatFunc row cached first
    _binomial_power.cache_clear()
    rows = [_binomial_power(RatFunc(1), RatFunc(-1), 3), _binomial_power(1, -1, 3)]
    assert rows[0] == rows[1] == (1, -3, 3, -1)
    assert [type(c) for c in rows[0]] == [RatFunc] * 4
    assert [type(c) for c in rows[1]] == [int] * 4


@pytest.mark.parametrize("value", [
    PolyQ(), PolyQ((Fraction(1, 2), 0, -3)), RatFunc(0), RatFunc(7), q,
    (q * q + 1) / (q - 3), 2 / (1 + q) ** 3, (q + 2) / (q * q + 3),
    XPoly(), x, (x * q + 1 / (1 + q)) ** 2,
])
def test_values_pickle_and_copy_through_their_constructors(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                 copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value
        assert hash(twin) == hash(value)
        assert str(twin) == str(value)
    if isinstance(value, RatFunc):
        assert pickle.loads(pickle.dumps(value))._form == value._form
