"""Tests for the identity registry, the moment oracle, and run_suite."""

import copy
import itertools
import pickle
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuler import euler, identities
from qeuler.bernstein import bernstein_basis
from qeuler.euler import EulerCache, euler_number_q, euler_number_q_inverse
from qeuler.exactalg import PolyQ, RatFunc, XPoly, _binomial_power, q, x
from qeuler.identities import (
    REGISTRY,
    BranchNote,
    ExploratoryRecord,
    Identity,
    IntegrandExpr,
    SideConditionError,
    SuiteReport,
    VerificationResult,
    _basis_ints,
    default_ranges,
    moment_reduce,
    reflection_chain,
    run_suite,
    verify_identity,
)

ONE_MINUS_X = XPoly((1, -1))


def _replaced(identity, **changes):
    """A copy of ``identity`` with the named fields changed."""
    return Identity(*(changes.get(name, getattr(identity, name))
                      for name in Identity.__slots__))


# -- moment oracle -----------------------------------------------------


def test_moment_of_power_is_euler_number():
    for n in range(11):
        assert moment_reduce(IntegrandExpr(1, 0, x**n)) == euler_number_q(n)
        assert moment_reduce(IntegrandExpr(-1, 0, x**n)) == euler_number_q_inverse(n)


def test_moment_frozen_example():
    got = moment_reduce(IntegrandExpr(-1, 0, ONE_MINUS_X))
    assert got == (2 * q**2 + 4 * q) / (q + 1) ** 2


def test_moment_qshift_prefactor():
    base = moment_reduce(IntegrandExpr(-1, 0, ONE_MINUS_X))
    shifted = moment_reduce(IntegrandExpr(-1, 1, ONE_MINUS_X))
    assert shifted == q * base
    assert shifted == 2 * q + euler_number_q(1)


def test_moment_rejects_bad_integrands():
    with pytest.raises(ValueError):
        IntegrandExpr(0, 0, ONE_MINUS_X)
    with pytest.raises(ValueError):
        IntegrandExpr(2, 0, ONE_MINUS_X)
    with pytest.raises(TypeError):
        IntegrandExpr(1, 0, (1, -1))


@pytest.mark.parametrize("qsign, qshift, field", [
    (1, 1.5, "qshift"), (1, "2", "qshift"), (-1, True, "qshift"),
    (True, 0, "qsign"), (1.0, 0, "qsign"),
])
def test_integrand_exponents_must_be_ints(qsign, qshift, field):
    with pytest.raises(TypeError, match=field):
        IntegrandExpr(qsign, qshift, ONE_MINUS_X)


small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
xpolys = st.lists(small_fracs, min_size=0, max_size=4).map(
    lambda cs: XPoly(tuple(cs))
)


@settings(max_examples=40, deadline=None)
@given(a=xpolys, b=xpolys, c=small_fracs,
       qsign=st.sampled_from([1, -1]), qshift=st.integers(0, 3))
def test_moment_is_linear(a, b, c, qsign, qshift):
    def mom(poly):
        return moment_reduce(IntegrandExpr(qsign, qshift, poly))

    assert mom(a + b) == mom(a) + mom(b)
    assert mom(a * RatFunc(c)) == RatFunc(c) * mom(a)


def test_moment_reduce_general_coefficients_match_termwise_fold():
    # the public IntegrandExpr path: coefficients that are not integers,
    # one of them outside the q^a (1+q)^b denominators
    u = RatFunc(PolyQ((2, 1)), PolyQ((3, 0, 1)))
    w = RatFunc(1, PolyQ((1, 1)))
    for coeffs in ([u], [w, 0, u], [u, w, 3, w * u], [0, 0, w]):
        poly = XPoly(coeffs)
        for qsign, moment in ((1, euler_number_q), (-1, euler_number_q_inverse)):
            for qshift in (0, 1, 3):
                acc = RatFunc(0)
                for j, c in enumerate(coeffs):
                    acc = acc + c * moment(j)
                expected = q**qshift * acc
                got = moment_reduce(IntegrandExpr(qsign, qshift, poly))
                assert (got.num, got.den) == (expected.num, expected.den)


# -- integrands built on integer lists -----------------------------------


def _bernstein_product(ns, k):
    out = XPoly((1,))
    for n in ns:
        out = out * bernstein_basis(k, n)
    return out


def test_integer_integrands_match_xpoly_products():
    for c0, c1, n in itertools.product(range(-2, 5), range(-2, 5), range(9)):
        assert XPoly(_binomial_power(c0, c1, n)) == XPoly((c0, c1)) ** n
    for ns in itertools.product(range(5), repeat=2):
        for k in range(min(ns) + 1):
            assert XPoly(_basis_ints(ns, k)) == _bernstein_product(ns, k)


#: Each integral identity's integrand q^qshift q^(qsign x) P(x), read off
#: the paper and built from XPoly products: params -> (qsign, qshift, P).
INTEGRANDS = {
    "eq2_symbolic": lambda m, nshift: (1, nshift, XPoly((nshift, 1)) ** m),
    "thm2_value_at_two": lambda n: (1, 1, XPoly((2, 1)) ** n),
    "thm3_integral": lambda n: (-1, 0, XPoly((1, -1)) ** n),
    "eq14_bernstein_moment": lambda n, k: (1, 0, bernstein_basis(k, n)),
    "thm4": lambda n, k: (-1, 1, bernstein_basis(k, n)),
    "thm6": lambda n, m, k: (-1, 1, bernstein_basis(k, n) * bernstein_basis(k, m)),
    "thm8": lambda *p: (-1, 1, _bernstein_product(p[:-1], p[-1])),
}


@pytest.mark.parametrize("tag", list(INTEGRANDS))
def test_integral_side_is_its_integrand_reduced(tag):
    # the whole small grid, so permuted thm6/thm8 tuples and k = 0 included
    grid = list(REGISTRY[tag].enumerate_params(
        default_ranges([tag], n_max=3, m_max=3, k_max=3, s_max=3)[tag]))
    if tag == "thm8":
        assert {(1, 2, 0), (2, 1, 0), (1, 2, 3, 1), (3, 2, 1, 1)} <= set(grid)
    for params in grid:
        expected = moment_reduce(IntegrandExpr(*INTEGRANDS[tag](*params)))
        assert REGISTRY[tag].lhs(params) == expected, params


#: The identities with an integral left side.
INTEGRAL_TAGS = {"eq2_symbolic", "thm2_value_at_two", "thm3_integral",
                 "eq14_bernstein_moment", "thm4", "cor5", "thm6", "cor7", "thm8", "cor9"}


def test_integral_sides_are_their_registry_integrands_reduced():
    assert {tag for tag, identity in REGISTRY.items()
            if identity.integrand is not None} == INTEGRAL_TAGS
    ranges = default_ranges(n_max=3, m_max=3, k_max=3, s_max=3)
    for tag in INTEGRAL_TAGS:
        identity = REGISTRY[tag]
        for params in identity.enumerate_params(ranges[tag]):
            qsign, qshift, ints = identity.integrand(params)
            expected = moment_reduce(IntegrandExpr(qsign, qshift, XPoly(ints)))
            assert identity.lhs(params) == expected, (tag, params)


#: Each corollary's sum_j C(N-sk, j) (-1)^j E_{j+sk}(1/q), read off the
#: paper: params -> (N, sk), the sum of the degrees and s k.
COR_SUMS = {
    "cor5": lambda n, k: (n, k),
    "cor7": lambda n, m, k: (n + m, 2 * k),
    "cor9": lambda *p: (sum(p[:-1]), (len(p) - 1) * p[-1]),
}


def _paper_moment_sum(total, sk):
    acc = RatFunc(0)
    for j in range(total - sk + 1):
        acc = acc + comb(total - sk, j) * (-1) ** j * euler_number_q_inverse(j + sk)
    return acc


@pytest.mark.parametrize("tag", list(COR_SUMS))
def test_corollary_left_side_is_the_papers_sum(tag):
    # the whole small grid, so permuted cor7/cor9 tuples and k = 0 included
    grid = list(REGISTRY[tag].enumerate_params(
        default_ranges([tag], n_max=3, m_max=3, k_max=3, s_max=3)[tag]))
    if tag == "cor9":
        assert {(1, 2, 0), (2, 1, 0), (1, 2, 3, 1), (3, 2, 1, 1)} <= set(grid)
    for params in grid:
        assert REGISTRY[tag].lhs(params) == _paper_moment_sum(*COR_SUMS[tag](*params)), params


def test_eq2_closed_form_is_the_papers_sum():
    # (-1)^nshift E_m(q) + 2 sum_l (-1)^(nshift-1-l) l^m q^l
    for m, nshift in itertools.product(range(7), range(1, 9)):
        boundary = RatFunc(0)
        for l in range(nshift):
            boundary = boundary + (-1) ** (nshift - 1 - l) * l**m * q**l
        expected = (-1) ** nshift * euler_number_q(m) + 2 * boundary
        assert REGISTRY["eq2_symbolic"].rhs((m, nshift)) == expected, (m, nshift)


# -- verify_identity ---------------------------------------------------


def test_verify_thm2_at_one():
    result = verify_identity("thm2_value_at_two", (1,))
    assert result.equal
    expected = (2 * q**2 + 4 * q) / (q + 1) ** 2
    assert result.lhs == expected
    assert result.rhs == expected
    assert result.difference == RatFunc(0)


def test_verify_thm1_at_zero():
    result = verify_identity("thm1_reflection", (0,))
    assert result.equal
    const = 2 * q / (q + 1)
    assert result.lhs.coeffs == (const,)
    assert result.rhs.coeffs == (const,)


def test_verify_thm4_base_case():
    result = verify_identity("thm4", (1, 0))
    assert result.equal
    assert result.lhs == 2 * q + euler_number_q(1)


def test_every_identity_verifies_at_a_small_point():
    points = {
        "eq2_symbolic": (0, 1),
        "eq9_frobenius": (0,),
        "thm1_reflection": (1,),
        "thm2_value_at_two": (1,),
        "thm3_integral": (1,),
        "eq14_bernstein_moment": (1, 0),
        "eq15_symmetry": (2, 1),
        "thm4": (2, 1),
        "cor5": (2, 1),
        "thm6": (2, 1, 1),
        "cor7": (2, 1, 1),
        "thm8": (2, 1, 2, 1),
        "cor9": (2, 1, 2, 1),
    }
    assert set(points) == set(REGISTRY)
    for tag, params in points.items():
        assert verify_identity(tag, params).equal, tag


def test_unknown_tag_lists_registry():
    with pytest.raises(ValueError, match="eq2_symbolic"):
        verify_identity("nope", (1,))


def test_parameter_validation():
    with pytest.raises(ValueError):
        verify_identity("thm2_value_at_two", (1, 2))
    with pytest.raises(ValueError):
        verify_identity("thm4", (3,))
    with pytest.raises(ValueError):
        verify_identity("thm4", (3, -1))
    with pytest.raises(ValueError):
        verify_identity("thm4", (3, True))
    with pytest.raises(ValueError):
        verify_identity("thm8", (3,))  # needs at least n_1 and k


# the fewest parameters each identity takes; thm8 and cor9 take more
MIN_ARITY = {
    "eq2_symbolic": 2, "eq9_frobenius": 1, "thm1_reflection": 1,
    "thm2_value_at_two": 1, "thm3_integral": 1, "eq14_bernstein_moment": 2,
    "eq15_symmetry": 2, "thm4": 2, "cor5": 2, "thm6": 3, "cor7": 3,
    "thm8": 2, "cor9": 2,
}
VARIADIC = {"thm8", "cor9"}


def test_parameter_count_is_checked_for_every_identity():
    assert set(MIN_ARITY) == set(REGISTRY)
    for tag, arity in MIN_ARITY.items():
        too_short = [(1,) * (arity - 1)]
        if tag not in VARIADIC:
            too_short.append((1,) * (arity + 1))
        for params in too_short:
            # the count is refused before the side condition is looked at
            with pytest.raises(ValueError, match="parameters") as info:
                verify_identity(tag, params)
            assert not isinstance(info.value, SideConditionError), (tag, params)
    for tag in VARIADIC:
        for params in ((2, 1), (2, 1, 1), (2, 1, 2, 1)):
            assert verify_identity(tag, params).equal, (tag, params)


# reference grids, one per shape, written out apart from the registry


def _grid_one_degree(b):
    return [(n,) for n in range(b["n"] + 1)]


def _grid_k_up_to_n(b):
    return [(n, k) for n in range(b["n"] + 1)
            for k in range(min(n, b["k"]) + 1)]


def _grid_eq2(b):
    return [(m, t) for m in range(b["m"] + 1) for t in range(b["nshift"] + 1)]


def _grid_two_degrees(b):
    return [(n, m, k) for n in range(b["n"] + 1) for m in range(b["m"] + 1)
            for k in range(min(n, m, b["k"]) + 1)]


def _grid_many_degrees(b):
    out = []
    for s in range(1, b["s"] + 1):
        for ns in itertools.product(range(b["n"] + 1), repeat=s):
            out.extend(ns + (k,) for k in range(min(min(ns), b["k"]) + 1))
    return out


REFERENCE_GRIDS = {
    "eq2_symbolic": _grid_eq2,
    "eq9_frobenius": _grid_one_degree,
    "thm1_reflection": _grid_one_degree,
    "thm2_value_at_two": _grid_one_degree,
    "thm3_integral": _grid_one_degree,
    "eq14_bernstein_moment": _grid_k_up_to_n,
    "eq15_symmetry": _grid_k_up_to_n,
    "thm4": _grid_k_up_to_n,
    "cor5": _grid_k_up_to_n,
    "thm6": _grid_two_degrees,
    "cor7": _grid_two_degrees,
    "thm8": _grid_many_degrees,
    "cor9": _grid_many_degrees,
}


@pytest.mark.parametrize("values", [
    {"n": 3, "m": 2, "k": 1, "s": 2, "nshift": 2},
    {"n": 2, "m": 3, "k": 3, "s": 3, "nshift": 0},
    {"n": 0, "m": 1, "k": 0, "s": 1, "nshift": 1},
])
def test_enumerate_params_matches_reference_grids(values):
    assert set(REFERENCE_GRIDS) == set(REGISTRY)
    for tag, reference in REFERENCE_GRIDS.items():
        identity = REGISTRY[tag]
        bounds = {name: values[name] for name, _, _ in identity.bounds}
        assert list(identity.enumerate_params(bounds)) == reference(bounds), tag


def test_side_conditions_raise_their_own_error():
    violations = {
        "eq2_symbolic": (3, 0),
        "thm2_value_at_two": (0,),
        "thm3_integral": (0,),
        "eq14_bernstein_moment": (3, 3),
        "thm4": (3, 3),
        "cor5": (0, 0),
        "thm6": (1, 1, 1),
        "cor7": (2, 0, 1),
        "thm8": (2, 2, 2),
        "cor9": (1, 1, 1, 1),
    }
    for tag, params in violations.items():
        with pytest.raises(SideConditionError):
            verify_identity(tag, params)


def test_verification_result_json_shape():
    out = verify_identity("thm2_value_at_two", (2,)).to_json()
    assert set(out) == {"id", "params", "lhs", "rhs", "diff"}
    assert out["id"] == "thm2_value_at_two"
    assert out["params"] == [2]
    assert set(out["lhs"]) == {"num", "den"}
    assert all(set(c) == {"num", "den"} for c in out["lhs"]["num"])


def test_results_agree_under_rational_substitution():
    # secondary sanity check: structural equality implies equal values
    q0 = Fraction(3, 7)
    for tag, params in [("thm6", (3, 2, 1)), ("cor9", (2, 2, 1, 1)),
                        ("eq2_symbolic", (2, 2))]:
        result = verify_identity(tag, params)
        assert result.lhs(q0) == result.rhs(q0)


# -- the reflection chain ----------------------------------------------


def test_reflection_chain_agrees():
    for n in range(1, 7):
        a, b, c, d = reflection_chain(n)
        assert a == b == c == d


# -- default_ranges -----------------------------------------------------


def test_default_ranges_cover_registry():
    ranges = default_ranges()
    assert set(ranges) == set(REGISTRY)
    assert ranges["thm8"] == {"s": 3, "n": 4, "k": 4}
    assert ranges["eq2_symbolic"] == {"m": 6, "nshift": 4}


def test_default_ranges_overrides():
    ranges = default_ranges(ids=["thm6"], n_max=2, k_max=1)
    assert ranges == {"thm6": {"n": 2, "m": 6, "k": 1}}
    with pytest.raises(ValueError):
        default_ranges(ids=["bad_tag"])


# -- run_suite ----------------------------------------------------------


def test_suite_single_identity_counts():
    report = run_suite({"thm2_value_at_two": {"n": 1}})
    assert (report.cases, report.passed, report.failed) == (1, 1, 0)
    assert report.skipped == 1  # n = 0 violates the side condition
    assert report.case_log == [("thm2_value_at_two", (1,), "pass")]
    assert report.failures == []


def test_suite_empty_ranges():
    report = run_suite({})
    assert report.cases == 0
    assert report.skipped == 0
    assert report.to_json()["failures"] == []


def test_suite_rejects_unknown_tags():
    with pytest.raises(ValueError):
        run_suite({"not_a_tag": {"n": 2}})


@pytest.mark.parametrize("bounds, named", [
    ({"n": 3}, r"missing \['k'\]"),
    ({"n": 3, "k": 1, "bogus": 9}, r"unknown \['bogus'\]"),
])
def test_suite_rejects_wrong_bound_names_before_any_case(monkeypatch, bounds, named):
    def no_case(tag, params):
        raise AssertionError("a case ran")

    monkeypatch.setattr(identities, "verify_identity", no_case)
    with pytest.raises(ValueError, match=f"thm4 .*{named}"):
        run_suite({"eq9_frobenius": {"n": 2}, "thm4": bounds})


@pytest.mark.parametrize("value", [True, "3", 2.0, -2])
def test_suite_rejects_bad_bound_values_before_any_case(monkeypatch, value):
    def no_case(tag, params):
        raise AssertionError("a case ran")

    monkeypatch.setattr(identities, "verify_identity", no_case)
    with pytest.raises(ValueError, match=r"^thm4 bound n must be a nonnegative integer, got "):
        run_suite({"eq9_frobenius": {"n": 2}, "thm4": {"n": value, "k": 1}})


def test_suite_is_deterministic():
    ranges = default_ranges(ids=["eq9_frobenius", "thm4"], n_max=4)
    first = run_suite(ranges).to_json()
    second = run_suite(ranges).to_json()
    assert first == second


def test_suite_exploratory_bucket():
    report = run_suite({"eq14_bernstein_moment": {"n": 3, "k": 3}})
    assert report.skipped == 4  # the k = n diagonal
    assert len(report.exploratory) == 4
    for record in report.exploratory:
        assert record.params[0] == record.params[1]
        assert record.computed
        # the formula happens to extend to the diagonal here
        assert record.equal is True
    assert report.cases == report.passed == 6


def test_suite_branch_notes():
    report = run_suite({"thm4": {"n": 4, "k": 4}})
    notes = report.branch_notes
    assert [note.params for note in notes] == [(n, 0) for n in range(1, 5)]
    assert all(note.coincide is False for note in notes)
    out = notes[0].to_json()
    assert set(out) == {"id", "params", "k0_matches_general_branch"}


def test_suite_cross_checks_gated_on_selection():
    chain = {"thm1_reflection": {"n": 3}, "thm2_value_at_two": {"n": 3},
             "thm3_integral": {"n": 3}}
    report = run_suite(chain)
    xtags = [tag for tag, _, _ in report.case_log if tag.startswith("xcheck")]
    assert xtags == ["xcheck_reflection_chain"] * 3

    partial = {"thm1_reflection": {"n": 3}, "thm2_value_at_two": {"n": 3}}
    report = run_suite(partial)
    assert not any(tag.startswith("xcheck") for tag, _, _ in report.case_log)


def test_suite_degeneration_cross_checks():
    ranges = default_ranges(ids=["thm8", "thm4", "thm6"], n_max=3, k_max=2,
                            s_max=2)
    report = run_suite(ranges)
    xtags = {tag for tag, _, _ in report.case_log if tag.startswith("xcheck")}
    assert xtags == {"xcheck_thm8_thm4", "xcheck_thm8_thm6"}
    assert report.failed == 0


@pytest.mark.parametrize("caps", [
    {"n_max": 4, "s_max": 2},
    # thm8 runs n up to 3 but thm6 only m up to 2, so some cross-check
    # base tuples lie outside thm6's own grid
    {"n_max": 3, "m_max": 2, "k_max": 1, "s_max": 3},
])
def test_suite_evaluates_each_case_once(monkeypatch, caps):
    calls = Counter()
    for tag, identity in REGISTRY.items():
        def counted(params, tag=tag, lhs=identity.lhs):
            calls[tag, params] += 1
            return lhs(params)
        monkeypatch.setitem(REGISTRY, tag, _replaced(identity, lhs=counted))
    report = run_suite(default_ranges(**caps))
    assert report.failed == 0
    assert {tag for tag, _, _ in report.case_log if tag.startswith("xcheck")} == {
        "xcheck_reflection_chain", "xcheck_eq14_thm4_swap", "xcheck_thm8_thm4",
        "xcheck_thm8_thm6", "xcheck_cor9_cor5", "xcheck_cor9_cor7",
    }
    assert [key for key, count in calls.items() if count > 1] == []


@pytest.mark.parametrize("caps", [
    {"n_max": 4, "s_max": 2},
    {"n_max": 3, "m_max": 2, "k_max": 1, "s_max": 3},
    # thm8 and cor9 at s = 4, so orbits of several orders and sizes
    {"n_max": 3, "m_max": 3, "k_max": 2, "s_max": 4},
])
def test_suite_orbits_match_fresh_verification(monkeypatch, caps):
    recorded = []
    record = SuiteReport.record

    def keep(self, result, params=None):
        recorded.append((result, result.params if params is None else params))
        record(self, result, params)

    monkeypatch.setattr(SuiteReport, "record", keep)
    report = run_suite(default_ranges(**caps))
    monkeypatch.undo()

    # the sums of thm6 and thm8 and the primitive reductions of the left
    # sides are cached by argument; start them afresh
    identities._thm6_sum.cache_clear()
    identities._thm8_sum.cache_clear()
    identities._reduce_primitive.cache_clear()

    # every recorded result, verified once per orbit, is what a bare
    # verify_identity computes afresh at the tuple's own params
    checked = 0
    for result, params in recorded:
        if result.identity in REGISTRY:
            fresh = verify_identity(result.identity, params)
            assert (fresh.lhs, fresh.rhs, fresh.equal, fresh.difference) == (
                result.lhs, result.rhs, result.equal, result.difference), params
            checked += 1
    assert checked == sum(1 for tag, _, _ in report.case_log if tag in REGISTRY)
    for entry in report.exploratory:
        identity = REGISTRY[entry.identity]
        assert entry.equal == (identity.lhs(entry.params)
                               == identity.closed_form(entry.params))
    for note in report.branch_notes:
        identity = REGISTRY[note.identity]
        assert note.coincide == (identity.rhs(note.params) == identity.rhs_k0(note.params))

    # an orbit still logs every ordered tuple
    for k in (0, 1):
        for params in ((1, 2, k), (2, 1, k)):
            assert ("thm8", params, "pass") in report.case_log


def _orbit_lhs_calls(monkeypatch, tag, bounds):
    """Run one identity; count its lhs calls per orbit and keep each case's lhs."""
    identity, calls, recorded = REGISTRY[tag], Counter(), {}
    record = SuiteReport.record

    def keep(self, result, params=None):
        recorded[result.params if params is None else params] = result.lhs
        record(self, result, params)

    def counted(params, side=identity.lhs):
        if identity.admissible(params):
            calls[identity.orbit(params)] += 1
        return side(params)

    monkeypatch.setattr(SuiteReport, "record", keep)
    monkeypatch.setitem(REGISTRY, tag, _replaced(identity, lhs=counted))
    report = run_suite({tag: bounds})
    assert report.failed == 0
    return calls, recorded


def test_thm8_tuples_with_one_integrand_share_one_lhs_call(monkeypatch):
    calls, lhs = _orbit_lhs_calls(monkeypatch, "thm8", {"s": 2, "n": 3, "k": 0})
    # every k = 0 integrand is q (1-x)^(sum n_i): one call per sum 1..6
    assert calls == {(total,): 1 for total in range(1, 7)}
    # one sum, so one orbit, across s = 1 and s = 2
    shared = [(3, 0), (0, 3, 0), (1, 2, 0), (2, 1, 0), (3, 0, 0)]
    assert all(lhs[params] is lhs[shared[0]] for params in shared)
    assert lhs[shared[0]] == moment_reduce(IntegrandExpr(-1, 1, ONE_MINUS_X**3))


def test_cor9_tuples_with_one_sum_share_one_lhs_call(monkeypatch):
    calls, lhs = _orbit_lhs_calls(monkeypatch, "cor9", {"s": 2, "n": 3, "k": 1})
    # one call per (sum n_i, s, k) of the admissible grid
    grid = [p for p in REGISTRY["cor9"].enumerate_params({"s": 2, "n": 3, "k": 1})
            if REGISTRY["cor9"].admissible(p)]
    assert calls == {(sum(p[:-1]), len(p) - 1, p[-1]): 1 for p in grid}
    shared = [(1, 3, 1), (3, 1, 1), (2, 2, 1)]
    assert all(lhs[params] is lhs[shared[0]] for params in shared)
    assert lhs[shared[0]] == _paper_moment_sum(4, 2)


def _primitive_reductions(monkeypatch, ranges):
    """Run the suite from a cold reduction cache; count each reduction made."""
    calls = Counter()
    reduce = identities._reduce_moments

    def counted(qsign, qshift, coeffs):
        calls[qsign, qshift, tuple(coeffs)] += 1
        return reduce(qsign, qshift, coeffs)

    monkeypatch.setattr(identities, "_reduce_moments", counted)
    identities._reduce_primitive.cache_clear()
    report = run_suite(ranges)
    identities._reduce_primitive.cache_clear()
    assert report.failed == 0
    return calls


def _bernstein_row(k, total):
    """x^k (1-x)^(total-k) with its last coefficient made positive."""
    return (0,) * k + tuple((-1) ** (total - k) * c
                            for c in _binomial_power(1, -1, total - k))


def test_thm6_and_cor7_reduce_each_primitive_row_once(monkeypatch):
    bounds = {"n": 3, "m": 3, "k": 2}
    calls = _primitive_reductions(monkeypatch, {"thm6": bounds, "cor7": bounds})
    # B_{k,n} B_{k,m} = C(n,k) C(m,k) x^2k (1-x)^(n+m-2k), and cor7 reduces
    # the same row: one reduction per (n+m, k), the exploratory n = m = k
    # tuples included
    keys = {(n + m, k) for n, m, k in REGISTRY["thm6"].enumerate_params(bounds)}
    assert calls == {(-1, 0, _bernstein_row(2 * k, total)): 1 for total, k in keys}


def test_thm4_and_cor5_reduce_each_primitive_row_once(monkeypatch):
    bounds = {"n": 4, "k": 4}
    calls = _primitive_reductions(monkeypatch, {"thm4": bounds, "cor5": bounds})
    # thm4 reduces C(n,k) x^k (1-x)^(n-k) against q^(1-x), cor5 the same
    # row against q^-x: one reduction per (n, k), the exploratory k = n
    # tuples included
    grid = REGISTRY["thm4"].enumerate_params(bounds)
    assert calls == {(-1, 0, _bernstein_row(k, n)): 1 for n, k in grid}


def test_closed_forms_never_read_the_reduction_cache(monkeypatch):
    class CacheRead(Exception):
        pass

    def refuse(qsign, row):
        raise CacheRead(qsign, row)

    monkeypatch.setattr(identities, "_reduce_primitive", refuse)
    identities._thm6_sum.cache_clear()
    identities._thm8_sum.cache_clear()
    with pytest.raises(CacheRead):
        REGISTRY["thm4"].lhs((2, 1))
    ranges = default_ranges(n_max=3, m_max=3, k_max=2, s_max=3)
    evaluated = 0
    for tag, identity in REGISTRY.items():
        for params in identity.enumerate_params(ranges[tag]):
            if identity.admissible(params):
                identity.closed_form(params)
                if identity.rhs_k0 is not None and params[-1] == 0:
                    identity.rhs(params)
                evaluated += 1
    assert evaluated > 0


def test_orbit_shared_failure_keeps_each_tuples_params(monkeypatch):
    # a wrong closed form that is still symmetric, so orbits stay orbits
    identity = REGISTRY["thm6"]
    wrong = _replaced(identity, rhs=lambda p, f=identity.rhs: f(p) + 1,
                      rhs_k0=lambda p, f=identity.rhs_k0: f(p) + 1)
    monkeypatch.setitem(REGISTRY, "thm6", wrong)
    bounds = {"n": 3, "m": 3, "k": 2}
    grid = [p for p in sorted(wrong.enumerate_params(bounds)) if wrong.admissible(p)]
    assert {(1, 2, 0), (2, 1, 0), (0, 3, 0), (2, 3, 1), (3, 2, 1)} <= set(grid)
    report = run_suite({"thm6": bounds})
    assert [result.params for result in report.failures] == grid
    assert report.case_log == [("thm6", params, "fail") for params in grid]
    assert report.failed == report.cases == len(grid)


def test_suite_builds_one_result_per_orbit(monkeypatch):
    built = []

    class Counted(VerificationResult):
        def __init__(self, *args, **kwargs):
            built.append(args[:2])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(identities, "VerificationResult", Counted)
    thm8 = REGISTRY["thm8"]
    # no base identity is selected, so no cross-check runs
    report = run_suite(default_ranges(ids=["thm8"], n_max=3, s_max=3))
    assert report.failed == 0
    orbits = {thm8.orbit(params) for _, params, _ in report.case_log}
    assert len(built) == len(orbits) < len(report.case_log)
    assert {thm8.orbit(params) for _, params in built} == orbits


def test_record_logs_a_tuple_against_its_orbits_result():
    zero = RatFunc(0)
    passing = VerificationResult("thm8", (1, 2, 0), q, q, True, zero)
    failing = VerificationResult("thm8", (1, 2, 1), q, q + 1, False, RatFunc(-1))
    report = SuiteReport()
    report.record(passing, (2, 1, 0))
    report.record(passing)
    assert report.failures == []
    report.record(failing, (2, 1, 1))
    report.record(failing)
    assert report.failures == [
        VerificationResult("thm8", (2, 1, 1), q, q + 1, False, RatFunc(-1)), failing]
    assert report.failures[1] is failing
    assert report.case_log == [("thm8", (2, 1, 0), "pass"), ("thm8", (1, 2, 0), "pass"),
                               ("thm8", (2, 1, 1), "fail"), ("thm8", (1, 2, 1), "fail")]
    assert (report.cases, report.passed, report.failed) == (4, 2, 2)


def test_suite_divides_nothing_once_the_caches_are_warm(monkeypatch):
    ranges = default_ranges(n_max=4, s_max=2)
    first = run_suite(ranges)
    divisions = []

    def counted(self, other, method=RatFunc.__truediv__):
        divisions.append(other)
        return method(self, other)

    monkeypatch.setattr(RatFunc, "__truediv__", counted)
    assert run_suite(ranges).to_json() == first.to_json()
    assert divisions == []


def test_suite_exploratory_flag():
    report = run_suite({"thm2_value_at_two": {"n": 2}})
    assert report.skipped == 1
    assert [(e.identity, e.params) for e in report.exploratory] == [
        ("thm2_value_at_two", (0,))
    ]


def test_suite_json_keys():
    report = run_suite({"eq9_frobenius": {"n": 2}})
    out = report.to_json()
    assert set(out) == {"cases", "passed", "failed", "skipped", "failures",
                        "exploratory", "branch_notes"}


# -- the largest q-Euler index of each grid ------------------------------


@pytest.mark.parametrize("caps", [
    {"n_max": 3, "m_max": 2, "k_max": 2, "s_max": 2},
    {"n_max": 2, "m_max": 3, "k_max": 1, "s_max": 3},
])
def test_stated_max_index_is_the_largest_index_requested(monkeypatch, caps):
    requested = []
    for name in ("number", "number_inverse", "frobenius"):
        def traced(self, n, *rest, method=getattr(EulerCache, name)):
            requested.append(n)
            return method(self, n, *rest)
        monkeypatch.setattr(EulerCache, name, traced)
    ranges = default_ranges(**caps)
    for tag, bounds in ranges.items():
        monkeypatch.setattr(euler, "_DEFAULT_CACHE", EulerCache())
        requested.clear()
        run_suite({tag: bounds})
        stated = REGISTRY[tag].max_index
        assert max(requested, default=None) == (stated and stated(bounds)), tag
    requested.clear()
    run_suite(ranges)  # with the cross-checks
    assert max(requested) == max(identity.max_index(ranges[tag])
                                 for tag, identity in REGISTRY.items()
                                 if identity.max_index is not None)


def test_suite_refuses_an_index_above_the_cap_before_any_case(monkeypatch):
    cache = EulerCache(n_max=5)
    monkeypatch.setattr(euler, "_DEFAULT_CACHE", cache)
    for ranges in ({"eq9_frobenius": {"n": 6}},
                   {"thm6": {"n": 3, "m": 3, "k": 1}},
                   {"thm8": {"s": 3, "n": 2, "k": 0}},
                   {"eq2_symbolic": {"m": 6, "nshift": 1}}):
        with pytest.raises(euler.IndexCapError, match="n_max=5"):
            run_suite(ranges)
        assert len(cache._numbers) == 1
    run_suite({"eq2_symbolic": {"m": 5, "nshift": 9}, "eq15_symmetry": {"n": 9, "k": 9}})


# -- the records --------------------------------------------------------


def _side(params):
    return RatFunc(0)


def test_verification_results_with_q_sides_round_trip():
    for tag, params in (("thm4", (2, 1)), ("thm1_reflection", (2,))):
        result = verify_identity(tag, params)
        for twin in (pickle.loads(pickle.dumps(result)), copy.deepcopy(result)):
            assert twin == result
            assert hash(twin) == hash(result)
            assert twin.to_json() == result.to_json()


def test_records_build_by_position_and_keyword_with_defaults():
    zero = RatFunc(0)
    result = VerificationResult("t", (1,), q, q, True, zero)
    assert result.valuation is None
    assert result == VerificationResult(identity="t", params=(1,), lhs=q, rhs=q,
                                        equal=True, difference=zero, valuation=None)
    assert VerificationResult("t", (1,), q, q, True, zero, 3).valuation == 3
    record = ExploratoryRecord("t", (0,), False, None)
    assert record.note == ""
    assert record == ExploratoryRecord(identity="t", params=(0,), computed=False,
                                       equal=None, note="")
    assert BranchNote("t", (0,), True) == BranchNote(identity="t", params=(0,),
                                                     coincide=True)
    integrand = IntegrandExpr(qsign=-1, qshift=1, poly=ONE_MINUS_X)
    assert (integrand.qsign, integrand.qshift, integrand.poly) == (-1, 1, ONE_MINUS_X)
    assert integrand == IntegrandExpr(-1, 1, ONE_MINUS_X)


def test_identity_defaults_and_field_order():
    bounds = (("n", "n", 2),)
    bare = Identity("t", "d", bounds, _side, _side)
    assert bare.admissible((5,)) is True
    assert bare.rhs_k0 is None and bare.max_index is None and bare.integrand is None
    assert bare.orbit((1, 2)) == (1, 2)
    assert bare == Identity(tag="t", description="d", bounds=bounds, lhs=_side, rhs=_side)
    fields = ("t", "d", bounds, _side, abs, callable, len, max, sorted, min)
    full = Identity(*fields)
    assert (full.tag, full.description, full.bounds, full.lhs, full.rhs, full.admissible,
            full.rhs_k0, full.max_index, full.orbit, full.integrand) == fields


def test_frozen_records_refuse_assignment():
    records = [
        IntegrandExpr(1, 0, ONE_MINUS_X),
        VerificationResult("t", (1,), q, q, True, RatFunc(0)),
        REGISTRY["thm4"],
        ExploratoryRecord("t", (0,), False, None),
        BranchNote("t", (0,), True),
    ]
    for record in records:
        name = type(record).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.unknown_field = None


def test_equal_fields_give_equal_records_and_hashes():
    pairs = [
        (IntegrandExpr(-1, 2, x**2), IntegrandExpr(-1, 2, x**2), IntegrandExpr(1, 2, x**2)),
        (verify_identity("thm4", (3, 1)), verify_identity("thm4", (3, 1)),
         verify_identity("thm4", (3, 2))),
        (ExploratoryRecord("t", (0,), False, None, "why"),
         ExploratoryRecord("t", (0,), False, None, "why"),
         ExploratoryRecord("t", (0,), False, None)),
        (BranchNote("t", (2, 0), False), BranchNote("t", (2, 0), False),
         BranchNote("t", (2, 0), True)),
        (_replaced(REGISTRY["thm6"]), REGISTRY["thm6"], _replaced(REGISTRY["thm6"], lhs=_side)),
    ]
    for a, b, other in pairs:
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert a != other
    assert repr(BranchNote("t", (2, 0), False)) == (
        "BranchNote(identity='t', params=(2, 0), coincide=False)")


@pytest.mark.parametrize("cls", [VerificationResult, Identity, ExploratoryRecord, BranchNote])
def test_shared_constructor_refuses_malformed_field_lists(cls):
    names = cls.__slots__
    values = tuple(range(len(names)))
    assert "__init__" not in vars(cls)
    assert cls(*values) == cls(**dict(zip(names, values)))
    with pytest.raises(TypeError, match="takes"):
        cls(*values, 0)
    with pytest.raises(TypeError, match=f"missing field {names[0]!r}"):
        cls(**dict(zip(names[1:], values[1:])))
    required = len(names) - len(cls._defaults)
    with pytest.raises(TypeError, match=f"missing field {names[required - 1]!r}"):
        cls(*values[:required - 1])
    with pytest.raises(TypeError, match="'bogus' is unknown"):
        cls(*values, bogus=0)
    with pytest.raises(TypeError, match=f"{names[0]!r} is given twice"):
        cls(values[0], **dict(zip(names, values)))


@pytest.mark.parametrize("record", [ExploratoryRecord("t", (0,), False, None, "why"),
                                    BranchNote("t", (2, 0), True)])
def test_small_records_survive_pickle_and_copy(record):
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                 copy.deepcopy(record)):
        assert type(twin) is type(record) and twin is not record
        assert twin == record and hash(twin) == hash(record)
        assert twin.to_json() == record.to_json()


def test_suite_reports_never_share_their_lists():
    names = ("failures", "case_log", "exploratory", "branch_notes")
    first, second = SuiteReport(), SuiteReport()
    assert first == second
    for name in names:
        getattr(first, name).append(None)
        assert getattr(second, name) == []
    assert first != second
    first.cases = 2  # the one mutable record
    assert (first.cases, second.cases) == (2, 0)
    with pytest.raises(TypeError):
        hash(first)
    given_lists = [[], [], [], []]
    report = SuiteReport(1, 1, 0, 0, *given_lists)
    assert all(getattr(report, name) is given for name, given in zip(names, given_lists))
    assert report == SuiteReport(cases=1, passed=1)
