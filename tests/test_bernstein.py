"""Bernstein basis and operator: expansion, symmetry, reproduction."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qeuler.bernstein import bernstein_basis, bernstein_operator
from qeuler.exactalg import XPoly, x


def test_small_bases():
    assert bernstein_basis(0, 0) == XPoly((1,))
    assert bernstein_basis(0, 1) == 1 - x
    assert bernstein_basis(1, 1) == x
    assert bernstein_basis(1, 2) == 2 * x - 2 * x**2
    assert bernstein_basis(1, 3) == 3 * x * (1 - x) ** 2


def test_basis_degree_and_leading_terms():
    for n in range(9):
        for k in range(n + 1):
            b = bernstein_basis(k, n)
            assert b.degree == n
            # lowest surviving power is x^k with coefficient C(n,k)
            assert all(b.coeff(i).is_zero for i in range(k))
            assert b.coeff(k).as_fraction() == Fraction(comb(n, k))


def test_basis_index_errors():
    with pytest.raises(ValueError):
        bernstein_basis(3, 2)
    with pytest.raises(ValueError):
        bernstein_basis(-1, 2)
    with pytest.raises(ValueError):
        bernstein_basis(0, -1)


def test_partition_of_unity():
    for n in range(11):
        total = XPoly()
        for k in range(n + 1):
            total = total + bernstein_basis(k, n)
        assert total == XPoly((1,)), f"n={n}"


def test_symmetry_under_index_flip():
    for n in range(11):
        for k in range(n + 1):
            flipped = bernstein_basis(n - k, n).compose_affine(-1, 1)
            assert bernstein_basis(k, n) == flipped


@given(
    st.integers(min_value=0, max_value=12),
    st.fractions(min_value=Fraction(-2), max_value=Fraction(2), max_denominator=8),
)
def test_basis_values_by_direct_substitution(n, point):
    # oracle: evaluate C(n,k) x^k (1-x)^(n-k) numerically, no expansion
    for k in range(n + 1):
        direct = comb(n, k) * point**k * (1 - point) ** (n - k)
        assert bernstein_basis(k, n)(point).as_fraction() == direct


def test_operator_reproduces_constants():
    for n in range(1, 7):
        assert bernstein_operator([Fraction(5, 3)] * (n + 1), n) == XPoly((Fraction(5, 3),))


def test_operator_reproduces_identity():
    for n in range(1, 7):
        samples = [Fraction(k, n) for k in range(n + 1)]
        assert bernstein_operator(samples, n) == x


def test_operator_identity_by_evaluation():
    # independent check at scattered rational points, termwise, no expansion
    for n in (2, 5):
        for point in (Fraction(1, 3), Fraction(2, 7), Fraction(9, 10)):
            total = sum(
                Fraction(k, n) * comb(n, k) * point**k * (1 - point) ** (n - k)
                for k in range(n + 1)
            )
            assert total == point


def test_operator_on_square_function():
    # classical: B_n(t^2) = x^2 + x(1-x)/n, exact
    for n in range(1, 7):
        samples = [Fraction(k, n) ** 2 for k in range(n + 1)]
        expected = x**2 + (x * (1 - x)) * Fraction(1, n)
        assert bernstein_operator(samples, n) == expected


def test_operator_refuses_inexact_samples():
    for bad in (0.1, 0.0, "1/2", None):
        with pytest.raises(TypeError):
            bernstein_operator([bad, 1], 1)
    assert bernstein_operator([0, Fraction(1, 2)], 1) == x * Fraction(1, 2)


def test_operator_arity_and_degree_errors():
    with pytest.raises(ValueError):
        bernstein_operator([1, 2], 2)
    with pytest.raises(ValueError):
        bernstein_operator([1], 0)
