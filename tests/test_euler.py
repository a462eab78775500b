"""q-Euler / Frobenius-Euler / classical Euler numbers.

Expected values come from an independent oracle: coefficient extraction
from the exponential generating functions by direct power-series
inversion over Q(q) (no use of the solved recurrences under test).
"""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuler import euler
from qeuler.euler import (
    MINUS_Q_INVERSE,
    EulerCache,
    IndexCapError,
    classical_euler_number,
    euler_number_q,
    euler_number_q_inverse,
    euler_poly_q,
    frobenius_euler,
    table_rows,
)
from qeuler.exactalg import PolyQ, RatFunc, XPoly, binomial, q


def series_inverse(denom_coeffs, length):
    """Power-series coefficients of 1 / sum_j denom_coeffs[j] t^j (field entries)."""
    inv = [1 / denom_coeffs[0]]
    for n in range(1, length):
        acc = None
        for i in range(n):
            term = inv[i] * denom_coeffs[n - i]
            acc = term if acc is None else acc + term
        inv.append(-acc / denom_coeffs[0])
    return inv

def qeuler_oracle(n_max):
    """E_n(q) for n <= n_max via the generating function 2/(q e^t + 1)."""
    denom = [q + 1] + [q * Fraction(1, factorial(j)) for j in range(1, n_max + 1)]
    series = series_inverse(denom, n_max + 1)
    return [2 * series[n] * factorial(n) for n in range(n_max + 1)]

def classical_oracle(n_max):
    """Classical E_n via the generating function 2/(e^t + 1)."""
    denom = [Fraction(2)] + [Fraction(1, factorial(j)) for j in range(1, n_max + 1)]
    series = series_inverse(denom, n_max + 1)
    return [2 * series[n] * factorial(n) for n in range(n_max + 1)]

def frobenius_oracle(u, n_max):
    """H_n(u) via the generating function (1-u)/(e^t - u)."""
    denom = [1 - u] + [RatFunc(Fraction(1, factorial(j))) for j in range(1, n_max + 1)]
    series = series_inverse(denom, n_max + 1)
    return [(1 - u) * series[n] * factorial(n) for n in range(n_max + 1)]


def test_first_qeuler_numbers():
    assert euler_number_q(0) == 2 / (1 + q)
    assert euler_number_q(1) == -2 * q / (1 + q) ** 2
    assert euler_number_q(2) == 2 * q * (q - 1) / (1 + q) ** 3


def test_qeuler_numbers_match_generating_function():
    expected = qeuler_oracle(12)
    for n in range(13):
        assert euler_number_q(n) == expected[n], f"n={n}"


def test_classical_numbers_match_generating_function():
    expected = classical_oracle(40)
    for n in range(41):
        assert classical_euler_number(n) == expected[n], f"n={n}"


def test_known_classical_values():
    known = [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(0),
        Fraction(1, 4),
        Fraction(0),
        Fraction(-1, 2),
        Fraction(0),
        Fraction(17, 8),
        Fraction(0),
        Fraction(-31, 2),
        Fraction(0),
    ]
    assert [classical_euler_number(n) for n in range(11)] == known


def test_qeuler_specializes_to_classical_at_one():
    for n in range(13):
        assert euler_number_q(n)(1) == classical_euler_number(n)


def test_recurrence_closure():
    # q*(E+1)^n + E_n is 0 for n >= 1 and 2 for n = 0.
    for n in range(11):
        acc = RatFunc(0)
        for l in range(n + 1):
            acc = acc + binomial(n, l) * euler_number_q(l)
        value = q * acc + euler_number_q(n)
        assert value == (RatFunc(2) if n == 0 else RatFunc(0)), f"n={n}"


def test_denominator_divides_power_of_one_plus_q():
    for n in range(13):
        e = euler_number_q(n)
        assert (PolyQ((1, 1)) ** (n + 1) % e.den).is_zero, f"n={n}"


def test_euler_poly_structure():
    for n in range(9):
        p = euler_poly_q(n)
        assert p.degree == n
        assert p.coeff(n) == 2 / (1 + q)
        assert p(0) == euler_number_q(n)
        for j in range(n + 1):
            assert p.coeff(j) == binomial(n, j) * euler_number_q(n - j)


def test_euler_poly_zero_case():
    assert euler_poly_q(0) == XPoly((2 / (1 + q),))


def test_number_inverse_is_invert_q():
    for n in range(9):
        assert euler_number_q_inverse(n) == euler_number_q(n).invert_q()
    assert euler_number_q_inverse(0) == 2 * q / (1 + q)


def test_frobenius_first_values():
    u = MINUS_Q_INVERSE
    assert frobenius_euler(0, u) == RatFunc(1)
    assert frobenius_euler(1, u) == -q / (1 + q)


def test_frobenius_matches_generating_function():
    for u in (MINUS_Q_INVERSE, RatFunc(-1), RatFunc(Fraction(1, 2)), 3 * q):
        expected = frobenius_oracle(u, 8)
        for n in range(9):
            assert frobenius_euler(n, u) == expected[n], f"n={n}, u={u}"


def test_frobenius_at_minus_one_is_classical():
    for n in range(11):
        assert frobenius_euler(n, RatFunc(-1)).as_fraction() == classical_euler_number(n)


def test_frobenius_link_to_qeuler():
    for n in range(11):
        assert euler_number_q(n) == (2 / (1 + q)) * frobenius_euler(n, MINUS_Q_INVERSE)


def test_frobenius_rejects_u_equal_one():
    with pytest.raises(ValueError):
        frobenius_euler(3, RatFunc(1))


def test_cache_cap_and_negative_index():
    cache = EulerCache(n_max=4)
    assert cache.number(4) == euler_number_q(4)
    with pytest.raises(IndexCapError):
        cache.number(5)
    with pytest.raises(ValueError):
        euler_number_q(-1)
    with pytest.raises(ValueError):
        euler_poly_q(-1)
    with pytest.raises(ValueError):
        classical_euler_number(-2)


def test_cache_isolation():
    cache = EulerCache(n_max=8)
    assert cache.number(3) == euler_number_q(3)
    assert cache.frobenius(2, RatFunc(-1)) == frobenius_euler(2, RatFunc(-1))


def test_frobenius_reads_a_computed_entry_without_dividing(monkeypatch):
    cache = EulerCache(n_max=8)
    first = [cache.frobenius(n, MINUS_Q_INVERSE) for n in range(6)]
    divisions = []
    for name in ("__truediv__", "__rtruediv__"):
        def counted(self, other, name=name, method=getattr(RatFunc, name)):
            divisions.append(name)
            return method(self, other)
        monkeypatch.setattr(RatFunc, name, counted)
    assert [cache.frobenius(n, MINUS_Q_INVERSE) for n in range(6)] == first
    assert divisions == []
    # a new index extends the list by the recurrence, with the stored scale
    sixth = cache.frobenius(6, MINUS_Q_INVERSE)
    assert divisions == []
    assert sixth == frobenius_euler(6, MINUS_Q_INVERSE)
    with pytest.raises(ValueError):
        cache.frobenius(-1, MINUS_Q_INVERSE)


def test_cold_table_divides_once(monkeypatch):
    expected = table_rows(128)
    monkeypatch.setattr(euler, "_DEFAULT_CACHE", EulerCache())
    divisions = []

    def counted(self, other, method=RatFunc.__truediv__):
        divisions.append(other)
        return method(self, other)

    monkeypatch.setattr(RatFunc, "__truediv__", counted)
    assert table_rows(128) == expected
    # the scale 1/(u-1) of H_n(-1/q), built with its list
    assert divisions == [MINUS_Q_INVERSE - 1]


def test_table_rows_shape():
    rows = table_rows(2)
    assert [r["n"] for r in rows] == [0, 1, 2]
    assert rows[0]["e_at_q1"] == {"num": "1", "den": "1"}
    assert RatFunc.from_json(rows[2]["e_nq"]) == euler_number_q(2)
    assert RatFunc.from_json(rows[2]["frobenius"]) == frobenius_euler(2, MINUS_Q_INVERSE)
    with pytest.raises(ValueError):
        table_rows(-1)


# -- scalar oracles at rational points --------------------------------------
#
# These recurrences run directly in Q at a point q0 and never build a
# RatFunc, so they check the Q(q) arithmetic and its canonical forms from
# outside.

rational_points = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=7
).filter(lambda r: r not in (0, -1))


def scalar_qeuler(q0, n_max):
    values = [Fraction(2) / (q0 + 1)]
    for n in range(1, n_max + 1):
        acc = sum(binomial(n, l) * values[l] for l in range(n))
        values.append(-q0 / (1 + q0) * acc)
    return values


def scalar_frobenius(u0, n_max):
    values = [Fraction(1)]
    for n in range(1, n_max + 1):
        acc = sum(binomial(n, l) * values[l] for l in range(n))
        values.append(acc / (u0 - 1))
    return values


@settings(max_examples=40, deadline=None)
@given(rational_points)
def test_qeuler_numbers_match_scalar_recurrence(q0):
    expected = scalar_qeuler(q0, 64)
    assert [euler_number_q(n)(q0) for n in range(65)] == expected
    expected_inverse = scalar_qeuler(1 / q0, 64)
    assert [euler_number_q_inverse(n)(q0) for n in range(65)] == expected_inverse


#: A Frobenius parameter whose denominators are prime to q(1+q); u(q0) != 1
#: for every rational q0 because q^2 - q + 1 has no rational root.
GENERAL_U = (q + 2) / (q**2 + 3)


@settings(max_examples=40, deadline=None)
@given(rational_points)
def test_frobenius_general_u_matches_scalar_recurrence(q0):
    u0 = (q0 + 2) / (q0 * q0 + 3)
    expected = scalar_frobenius(u0, 12)
    assert [frobenius_euler(n, GENERAL_U)(q0) for n in range(13)] == expected


# -- an integer oracle through the Eulerian numbers ----------------------
#
# P_n(q) = 2 (-q)^n A_n(-1/q) (Carlitz 1959), so
#   E_n(q)   (1+q)^(n+1) = 2 sum_k A(n,k) (-1)^(n-k) q^(n-k),
#   E_n(1/q) (1+q)^(n+1) = 2 sum_k A(n,k) (-1)^(n-k) q^(k+1),
# with the Eulerian numbers A(n,k) from their own triangle, in integers.


def eulerian_rows(n_max):
    """A(n, k) for n <= n_max, row n holding k = 0 .. max(n - 1, 0)."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1] + [0]
        rows.append([(k + 1) * prev[k] + (n - k) * (prev[k - 1] if k else 0)
                     for k in range(n)])
    return rows


def int_convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def lifted_numerator(value, n):
    """The coefficients of value * (1+q)^(n+1), for a value over q^a (1+q)^b,
    b <= n + 1, as (a, list): value (1+q)^(n+1) = list / q^a."""
    den = list(value.den.coeffs)
    a = next(i for i, c in enumerate(den) if c)
    b = len(den) - 1 - a
    assert den == [0] * a + [binomial(b, i) for i in range(b + 1)]
    assert b <= n + 1
    return a, int_convolve(list(value.num.coeffs), [binomial(n + 1 - b, i)
                                                    for i in range(n + 2 - b)])


def test_qeuler_numbers_match_eulerian_numbers():
    rows = eulerian_rows(128)
    for n in range(129):
        signed = [2 * a * (-1) ** (n - k) for k, a in enumerate(rows[n])]
        plain = [0] * (n + 1)
        inverse = [0] * (len(signed) + 1)
        for k, c in enumerate(signed):
            plain[n - k] += c
            inverse[k + 1] += c
        for value, expected in ((euler_number_q(n), plain),
                                (euler_number_q_inverse(n), inverse)):
            a, lifted = lifted_numerator(value, n)
            assert lifted == [0] * a + expected, f"n={n}"


def test_qeuler_numbers_match_sympy_series():
    sympy = pytest.importorskip("sympy")
    t, z = sympy.symbols("t q")
    series = sympy.series(2 / (z * sympy.exp(t) + 1), t, 0, 9).removeO()

    def as_sympy(poly):
        return sum(sympy.Rational(c.numerator, c.denominator) * z**i
                   for i, c in enumerate(poly.coeffs))

    for n in range(9):
        expected = series.coeff(t, n) * sympy.factorial(n)
        for value, target in ((euler_number_q(n), expected),
                              (euler_number_q_inverse(n), expected.subs(z, 1 / z))):
            assert sympy.cancel(target - as_sympy(value.num) / as_sympy(value.den)) == 0
