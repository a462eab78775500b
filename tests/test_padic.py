"""Tests for residue arithmetic and the truncated fermionic sums."""

import pickle
from fractions import Fraction
from math import comb, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuler.cli import main
from qeuler.euler import IndexCapError, euler_number_q, euler_poly_q
from qeuler.padic import (
    _PRIMALITY_BOUND,
    CALIBRATED_SLACK,
    ConvergenceReport,
    DepthEntry,
    NonUnitError,
    PAdic,
    fermionic_partial_sum,
    is_odd_prime,
    padic_from_rational,
    shift_identity_check_numeric,
    witt_convergence_check,
    _convergence_reports,
    _valuation,
)


def test_is_odd_prime():
    assert [p for p in range(30) if is_odd_prime(p)] == [3, 5, 7, 11, 13, 17,
                                                         19, 23, 29]


def test_is_odd_prime_agrees_with_trial_division():
    def trial_division(n):
        return n >= 3 and n % 2 == 1 and all(n % d for d in range(3, isqrt(n) + 1, 2))

    assert [n for n in range(20000) if is_odd_prime(n) != trial_division(n)] == []


def test_is_odd_prime_rejects_pseudoprimes():
    # 2047 = 23 * 89 is a strong pseudoprime to base 2; 561 and 41041
    # are Carmichael numbers.
    assert not any(is_odd_prime(n) for n in (2047, 561, 41041))
    assert is_odd_prime(2**61 - 1)


def test_is_odd_prime_refuses_above_its_bound():
    with pytest.raises(ValueError):
        is_odd_prime(_PRIMALITY_BOUND)


def test_rational_embedding():
    assert padic_from_rational(Fraction(1, 2), 3, 2).residue == 5
    assert padic_from_rational(Fraction(2, 5), 3, 3).residue == 22
    assert padic_from_rational(Fraction(-8, 25), 3, 3).residue == 4
    with pytest.raises(NonUnitError):
        padic_from_rational(Fraction(1, 3), 3, 4)
    with pytest.raises(NonUnitError):
        padic_from_rational(Fraction(1, 10), 5, 2)
    assert padic_from_rational(7, 5, 2).residue == 7


@pytest.mark.parametrize("bad", [0.1, 0.0, "1/3", 1j, None, True, False])
def test_rational_embedding_accepts_only_int_and_fraction(bad):
    with pytest.raises(TypeError):
        padic_from_rational(bad, 5, 3)


def test_padic_arithmetic():
    assert PAdic(3, 2, 9).residue == 0
    assert PAdic(3, 2, 9).valuation() == 2  # capped at M
    assert PAdic(3, 2, 3).valuation() == 1
    assert PAdic(3, 2, -1).residue == 8


@pytest.mark.parametrize("p", [3, 5, 7])
def test_valuation_of_a_power_times_a_unit(p):
    M = 2001
    for u in (1, p - 1, 2 * p**3 + 1):
        for v in range(M):
            assert PAdic(p, M, p**v * u).valuation() == v
            assert _valuation(p**v * u % p**M, p, M) == v
    assert PAdic(p, M, 0).valuation() == M
    assert PAdic(p, M, p**M).valuation() == M
    assert _valuation(0, p, M) == M


def test_padic_constructor_checks_p_and_M():
    with pytest.raises(ValueError):
        PAdic(9, 2, 1)
    with pytest.raises(ValueError):
        PAdic(3, 0, 1)
    for args in ((5, 2, 3.5), (5, 2, Fraction(1, 2)), (5, 2, True), (5, 2, False),
                 (5, 2.0, 3), (5.0, 2, 3)):
        with pytest.raises(TypeError):
            PAdic(*args)


@pytest.mark.parametrize("p, M", [(3, True), (True, 3), (3, 2.0), (3.0, 2), ("3", 2)])
def test_every_entry_point_refuses_a_non_int_p_or_M(p, M):
    entry_points = [
        lambda: PAdic(p, M, 5),
        lambda: padic_from_rational(Fraction(1, 2), p, M),
        lambda: fermionic_partial_sum(1, 0, 4, p, 2, M),
        lambda: witt_convergence_check(1, 0, p, 4, M, 2),
        lambda: shift_identity_check_numeric(1, 1, 4, p, 2, M),
    ]
    for call in entry_points:
        with pytest.raises(TypeError, match="must be an int"):
            call()


@pytest.mark.parametrize("bad", [True, False, 2.0, Fraction(2), "2"])
def test_every_entry_point_refuses_a_non_int_degree_point_base_or_depth(bad):
    good = {"n": 1, "x0": 1, "q0": 4, "depth": 2}
    for name in good:
        a = {**good, name: bad}
        entry_points = [
            lambda: fermionic_partial_sum(a["n"], a["x0"], a["q0"], 3, a["depth"], 2),
            lambda: witt_convergence_check(a["n"], a["x0"], 3, a["q0"], 2, a["depth"]),
            lambda: _convergence_reports((0, a["n"]), (a["x0"],), 3, a["q0"], 2, a["depth"]),
            # x0 is nshift here
            lambda: shift_identity_check_numeric(a["n"], a["x0"], a["q0"], 3, a["depth"], 2),
        ]
        for call in entry_points:
            with pytest.raises(TypeError, match="must be an int"):
                call()
    with pytest.raises(TypeError, match="n must be an int, got True"):
        witt_convergence_check(True, False, 3, 4, 3, True)
    with pytest.raises(TypeError, match="nshift must be an int"):
        shift_identity_check_numeric(1, bad, 4, 3, 2, 2)


def test_primality_is_tested_per_call_not_per_residue(monkeypatch):
    import qeuler.padic as padic

    calls = []

    def counting(p):
        calls.append(p)
        return is_odd_prime(p)

    monkeypatch.setattr(padic, "is_odd_prime", counting)
    counts = []
    for N_max in (2, 8):
        calls.clear()
        witt_convergence_check(4, 1, 5, 6, 6, N_max)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 2
    assert set(calls) == {5}
    for N in (2, 8):
        calls.clear()
        shift_identity_check_numeric(3, 2, 6, 5, N, 6)
        assert calls == [5]


def test_padic_json():
    assert PAdic(3, 3, 22).to_json() == {"p": 3, "M": 3, "residue": "22"}


def test_partial_sum_trivial_cases():
    # q0 = 1, n = 0: the alternating sum over an odd block is 1
    for N in range(1, 5):
        assert fermionic_partial_sum(0, 0, 1, 3, N, 4).residue == 1
    # 0 - 1 + 2 = 1
    assert fermionic_partial_sum(1, 0, 1, 3, 1, 4).residue == 1


def test_partial_sum_domain_errors():
    with pytest.raises(ValueError):
        fermionic_partial_sum(-1, 0, 4, 3, 1, 3)
    with pytest.raises(ValueError):
        fermionic_partial_sum(1, -1, 4, 3, 1, 3)
    with pytest.raises(ValueError):
        fermionic_partial_sum(1, 0, 4, 3, 0, 3)
    with pytest.raises(ValueError):
        fermionic_partial_sum(1, 0, 4, 4, 1, 3)  # composite p
    with pytest.raises(ValueError):
        fermionic_partial_sum(1, 0, 2, 3, 1, 3)  # q0 != 1 mod p
    with pytest.raises(ValueError):
        fermionic_partial_sum(1, 0, 4, 3, 1, 0)  # M < 1


def test_witt_report_frozen_values():
    report = witt_convergence_check(n=1, x0=0, p=3, q0=4, M=3, N_max=5)
    assert report.target == 4
    assert [e.N for e in report.entries] == [1, 2, 3, 4, 5]
    assert [e.valuation for e in report.entries] == [1, 2, 3, 3, 3]
    assert report.entries[2].partial_sum == 4
    assert report.monotone
    assert report.reached_at() == 3


def test_witt_report_degree_zero():
    report = witt_convergence_check(n=0, x0=0, p=3, q0=4, M=3, N_max=5)
    assert report.target == 22  # 2/5 embedded mod 27
    assert [e.valuation for e in report.entries] == [2, 3, 3, 3, 3]
    assert report.reached_at() == 2


def test_witt_report_other_prime():
    report = witt_convergence_check(n=1, x0=2, p=5, q0=6, M=2, N_max=3)
    assert report.monotone
    assert report.reached_at() is not None
    assert report.reached_at() <= 2 + CALIBRATED_SLACK


def test_witt_json_shape():
    report = witt_convergence_check(n=1, x0=0, p=3, q0=4, M=2, N_max=2)
    out = report.to_json()
    assert set(out) == {"p", "M", "q0", "n", "x0", "target", "rows"}
    assert out["p"] == 3 and out["M"] == 2 and out["q0"] == 4
    assert isinstance(out["target"], str)
    assert out["rows"] == [
        {"N": e.N, "S": str(e.partial_sum), "val": e.valuation}
        for e in report.entries
    ]


def test_witt_domain_errors():
    with pytest.raises(ValueError):
        witt_convergence_check(n=1, x0=0, p=4, q0=5, M=3, N_max=2)
    with pytest.raises(ValueError):
        witt_convergence_check(n=1, x0=0, p=3, q0=2, M=3, N_max=2)
    with pytest.raises(ValueError):
        witt_convergence_check(n=1, x0=0, p=3, q0=4, M=0, N_max=2)
    with pytest.raises(ValueError):
        witt_convergence_check(n=1, x0=0, p=3, q0=4, M=3, N_max=0)
    with pytest.raises(ValueError):
        witt_convergence_check(n=-1, x0=0, p=3, q0=4, M=3, N_max=2)


def test_shift_identity_numeric():
    for m in range(4):
        for nshift in (1, 2):
            result = shift_identity_check_numeric(m, nshift, q0=4, p=3,
                                                  N=4, M=6)
            assert result.identity == "eq2_shift_numeric"
            assert result.params == (m, nshift, 4, 3, 4, 6)
            assert result.valuation is not None
            # truncation error carries at least p^N
            assert result.valuation >= min(6, 4 - CALIBRATED_SLACK)
            assert result.equal == (result.valuation >= 6)
    out = result.to_json()
    assert set(out) == {"id", "params", "lhs", "rhs", "diff", "valuation"}


def test_shift_identity_numeric_exact_at_full_depth():
    result = shift_identity_check_numeric(2, 1, q0=4, p=3, N=4, M=3)
    assert result.equal
    assert result.valuation == 3


def test_shift_identity_domain_errors():
    with pytest.raises(ValueError):
        shift_identity_check_numeric(1, 0, q0=4, p=3, N=2, M=3)
    with pytest.raises(ValueError):
        shift_identity_check_numeric(-1, 1, q0=4, p=3, N=2, M=3)
    with pytest.raises(ValueError):
        shift_identity_check_numeric(1, 1, q0=5, p=3, N=2, M=3)


# -- oracles independent of the block recursion ------------------------------


def direct_sums(n, x0, q0, p, N_max, M):
    """S_1 .. S_{N_max} by the defining loop over y < p^N, reduced mod p^M."""
    pm = p**M
    sums = []
    acc = 0
    boundary = p
    for y in range(p**N_max):
        acc = (acc + pow(-q0, y, pm) * pow(x0 + y, n, pm)) % pm
        if y + 1 == boundary:
            sums.append(acc)
            boundary *= p
    return sums


ORACLE_PRIMES = (3, 5, 7, 11)
ORACLE_PRECISIONS = (1, 2, 5)
#: Sums mod p^WIDEST reduce to every precision of the grid.
WIDEST = max(ORACLE_PRECISIONS)
ORACLE_X0 = (0, 1, 2, 5)


def oracle_bases(p):
    return (1, 1 + p, 1 + 2 * p, 1 - p, 1 + p * p)


def test_partial_sums_match_direct_loop():
    depth = 3
    for p in ORACLE_PRIMES:
        for q0 in oracle_bases(p):
            for n in range(8):
                for x0 in ORACLE_X0:
                    widest = direct_sums(n, x0, q0, p, depth, WIDEST)
                    for M in ORACLE_PRECISIONS:
                        expected = [s % p**M for s in widest]
                        got = [fermionic_partial_sum(n, x0, q0, p, N, M).residue
                               for N in range(1, depth + 1)]
                        assert got == expected, (p, q0, n, x0, M)
                        report = witt_convergence_check(n, x0, p, q0, M, depth)
                        assert [e.partial_sum for e in report.entries] \
                            == expected, (p, q0, n, x0, M)


def test_convergence_reports_match_per_degree_checks_and_direct_loop():
    depth = 3
    degrees = range(8)
    for p in ORACLE_PRIMES:
        for q0 in oracle_bases(p):
            for x0 in ORACLE_X0:
                widest = [direct_sums(n, x0, q0, p, depth, WIDEST) for n in degrees]
                for M in ORACLE_PRECISIONS:
                    reports = _convergence_reports(degrees, (x0,), p, q0, M, depth)
                    assert [r.n for r in reports] == list(degrees)
                    for n, report in zip(degrees, reports):
                        where = (p, q0, n, x0, M)
                        assert report == witt_convergence_check(
                            n, x0, p, q0, M, depth), where
                        assert [e.partial_sum for e in report.entries] \
                            == [s % p**M for s in widest[n]], where
                    # any subset, in any order, reads the same reports
                    assert _convergence_reports((6, 0, 3), (x0,), p, q0, M, depth) \
                        == [reports[6], reports[0], reports[3]]


def test_convergence_reports_share_one_recursion_across_x0():
    depth = 3
    x0s = ORACLE_X0 + (2, 0)  # duplicates keep their own reports
    for p in ORACLE_PRIMES:
        for q0 in oracle_bases(p):
            for M in ORACLE_PRECISIONS:
                reports = _convergence_reports(range(6), x0s, p, q0, M, depth)
                assert reports == [
                    witt_convergence_check(n, x0, p, q0, M, depth)
                    for n in range(6) for x0 in x0s], (p, q0, M)


def test_reports_build_no_residue_record(monkeypatch, capsys):
    argv = ["padic", "--p", "11", "--q0", "12", "--precision", "6",
            "--depth", "6", "--n-max", "8", "--x0", "6", "--x0", "0"]

    def reports_and_outputs():
        outputs = []
        for fmt in ("json", "csv", "latex"):
            assert main(argv + ["--format", fmt]) == 0
            outputs.append(capsys.readouterr())
        return _convergence_reports(range(9), (6, 0), 11, 12, 6, 6), outputs

    expected = reports_and_outputs()

    def refuse(*args):
        raise AssertionError("a PAdic was built")

    monkeypatch.setattr(PAdic, "_checked", refuse)
    with pytest.raises(AssertionError, match="a PAdic was built"):
        fermionic_partial_sum(8, 6, 12, 11, 6, 6)
    assert reports_and_outputs() == expected


def test_exact_target_is_the_symbolic_polynomial_at_the_point():
    # q0 = -8 is 1 mod 3^2
    for p, q0 in ((3, 4), (5, -4), (7, 1 + 7 * 7), (3, -8)):
        for n in range(17):
            for x0 in (0, 1, 2, 5):
                symbolic = euler_poly_q(n)(Fraction(x0))(Fraction(q0))
                report = witt_convergence_check(n, x0, p, q0, 12, 1)
                assert report.target == padic_from_rational(symbolic, p, 12).residue, (
                    p, q0, n, x0)


def counting_euler_numbers(monkeypatch):
    import qeuler.padic as padic

    calls = []

    def counting(l):
        calls.append(l)
        return euler_number_q(l)

    monkeypatch.setattr(padic, "euler_number_q", counting)
    return calls


def test_a_single_degree_check_evaluates_one_target(monkeypatch):
    calls = counting_euler_numbers(monkeypatch)
    for n in (0, 3, 9):
        for x0s in ((2,), (0, 1, 2, 5, 2)):
            calls.clear()
            _convergence_reports(range(n + 1), x0s, 5, 6, 4, 2)
            assert calls == list(range(n + 1))  # once per l, not per (n, x0)


def test_a_degree_above_the_cap_is_refused_before_any_value(monkeypatch):
    calls = counting_euler_numbers(monkeypatch)
    with pytest.raises(IndexCapError):
        witt_convergence_check(129, 0, 3, 4, 2, 2)
    with pytest.raises(IndexCapError):
        _convergence_reports((0, 129), (0,), 3, 4, 2, 2)
    assert calls == []


def test_shift_identity_numeric_matches_direct_loop():
    depth = 3
    for p in ORACLE_PRIMES:
        for q0 in oracle_bases(p):
            for m in range(8):
                plain = direct_sums(m, 0, q0, p, depth, WIDEST)
                for nshift in (x0 for x0 in ORACLE_X0 if x0 > 0):
                    shifted = direct_sums(m, nshift, q0, p, depth, WIDEST)
                    boundary = sum((-1) ** (nshift - 1 - l) * q0**l * l**m
                                   for l in range(nshift))
                    for M in ORACLE_PRECISIONS:
                        pm = p**M
                        for N in range(1, depth + 1):
                            lhs = shifted[N - 1] * q0**nshift % pm
                            rhs = ((-1) ** nshift * plain[N - 1]
                                   + 2 * boundary) % pm
                            result = shift_identity_check_numeric(
                                m, nshift, q0, p, N, M)
                            where = (p, q0, m, nshift, N, M)
                            assert result.lhs.residue == lhs, where
                            assert result.rhs.residue == rhs, where
                            assert result.equal == (lhs == rhs), where


def scalar_qeuler_poly(n, x0, q0):
    """E_n(x0, q0) from the scalar recurrence in Q; no RatFunc involved."""
    numbers = [Fraction(2, 1 + q0)]
    for k in range(1, n + 1):
        acc = sum(comb(k, l) * numbers[l] for l in range(k))
        numbers.append(Fraction(-q0, 1 + q0) * acc)
    return sum(comb(n, l) * numbers[l] * x0 ** (n - l) for l in range(n + 1))


def p_valuation(value, p, M):
    value %= p**M
    v = 0
    while v < M and value % p == 0:
        value //= p
        v += 1
    return v


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from((3, 5, 7, 11, 13)),
    t=st.integers(-5, 5),
    x0=st.integers(0, 8),
    n=st.integers(0, 8),
    M=st.integers(1, 6),
)
def test_partial_sums_converge_to_scalar_target(p, t, x0, n, M):
    q0 = 1 + p * t
    pm = p**M
    exact = scalar_qeuler_poly(n, x0, q0)
    target = exact.numerator * pow(exact.denominator, -1, pm) % pm
    depth = M + 1
    assert fermionic_partial_sum(n, x0, q0, p, depth, M).residue == target
    report = witt_convergence_check(n, x0, p, q0, M, depth)
    assert report.target == target
    for entry in report.entries:
        assert entry.valuation == p_valuation(entry.partial_sum - target, p, M)
        assert entry.valuation >= min(entry.N, M)


def test_records_build_by_position_and_keyword():
    assert PAdic(5, 2, 28) == PAdic(p=5, M=2, residue=3)
    assert DepthEntry(2, 7, 1) == DepthEntry(N=2, partial_sum=7, valuation=1)
    report = witt_convergence_check(n=1, x0=0, p=3, q0=4, M=3, N_max=2)
    fields = (3, 3, 4, 1, 0, report.target, report.entries)
    assert report == ConvergenceReport(*fields)
    assert report == ConvergenceReport(p=3, M=3, q0=4, n=1, x0=0, target=report.target,
                                       entries=report.entries)
    assert (report.p, report.M, report.q0, report.n, report.x0, report.target,
            report.entries) == fields


@pytest.mark.parametrize("cls", [DepthEntry, ConvergenceReport])
def test_shared_constructor_refuses_malformed_field_lists(cls):
    names = cls.__slots__
    values = tuple(range(len(names)))
    assert "__init__" not in vars(cls)
    assert cls(*values) == cls(**dict(zip(names, values)))
    with pytest.raises(TypeError, match="takes"):
        cls(*values, 0)
    with pytest.raises(TypeError, match=f"missing field {names[0]!r}"):
        cls(**dict(zip(names[1:], values[1:])))
    with pytest.raises(TypeError, match=f"missing field {names[-1]!r}"):
        cls(*values[:-1])
    with pytest.raises(TypeError, match="'bogus' is unknown"):
        cls(*values, bogus=0)
    with pytest.raises(TypeError, match=f"{names[0]!r} is given twice"):
        cls(values[0], **dict(zip(names, values)))


def test_records_are_frozen_and_hash_by_value():
    records = [PAdic(5, 2, 3), DepthEntry(2, 7, 1),
               witt_convergence_check(n=1, x0=0, p=3, q0=4, M=3, N_max=2)]
    twins = [PAdic(5, 2, 3), DepthEntry(2, 7, 1),
             witt_convergence_check(n=1, x0=0, p=3, q0=4, M=3, N_max=2)]
    others = [PAdic(5, 3, 3), DepthEntry(2, 7, 2),
              witt_convergence_check(n=1, x0=0, p=3, q0=4, M=3, N_max=3)]
    for record, twin, other in zip(records, twins, others):
        assert record == twin and hash(record) == hash(twin)
        assert record != other
        assert pickle.loads(pickle.dumps(record)) == record
        name = type(record).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(PAdic(5, 2, 3)) == "PAdic(p=5, M=2, residue=3)"
