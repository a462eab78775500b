"""Output checks for the benchmark workloads, independent of qeuler.

Nothing here imports the package under test.  Every expected value is
recomputed from the definitions in the project README with plain
``fractions.Fraction`` scalars:

* E_0(q) = 2/(1+q),  E_n(q) = -(q/(1+q)) sum_{l<n} C(n,l) E_l(q),
* H_0(u) = 1,        H_n(u) = (1/(u-1)) sum_{l<n} C(n,l) H_l(u),
* E_0 = 1,           E_n = -(1/2) sum_{l<n} C(n,l) E_l  (classical),

run at a point q0 in Q rather than over Q(q).  The output's exact
elements of Q(q) are evaluated at the same points and compared.  The
sample points come from a ``random.Random`` seeded by the caller, so
one seed always checks the same points.

Each ``check_*`` function returns ``None`` when the output passes and
raises ``CheckError`` naming the first discrepancy otherwise.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import product
from math import comb

SAMPLE_POINTS = 3


class CheckError(Exception):
    """The workload's output disagrees with the independent computation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# -- scalar references -------------------------------------------------------


def q_euler_at(q0: Fraction, n_max: int) -> list[Fraction]:
    """E_0(q0) .. E_{n_max}(q0) by the defining recurrence, in Q."""
    scale = -q0 / (1 + q0)
    values = [2 / (1 + q0)]
    for n in range(1, n_max + 1):
        values.append(scale * sum(comb(n, l) * values[l] for l in range(n)))
    return values


def frobenius_at(u0: Fraction, n_max: int) -> list[Fraction]:
    """H_0(u0) .. H_{n_max}(u0) by the defining recurrence, in Q."""
    scale = 1 / (u0 - 1)
    values = [Fraction(1)]
    for n in range(1, n_max + 1):
        values.append(scale * sum(comb(n, l) * values[l] for l in range(n)))
    return values


def classical_euler(n_max: int) -> list[Fraction]:
    """Classical Euler numbers E_0 .. E_{n_max}: 1, -1/2, 0, 1/4, ..."""
    values = [Fraction(1)]
    for n in range(1, n_max + 1):
        values.append(-sum(comb(n, l) * values[l] for l in range(n)) / 2)
    return values


def sample_points(rng: random.Random, count: int = SAMPLE_POINTS) -> list[Fraction]:
    """Distinct rational points avoiding 0 and -1 (poles of the references)."""
    points: list[Fraction] = []
    while len(points) < count:
        point = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if point not in (0, -1) and point not in points:
            points.append(point)
    return points


# -- decoding the JSON encodings of the README ---------------------------------


def _rational(obj: dict) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


def _poly(obj: list) -> list[Fraction]:
    return [_rational(c) for c in obj]


def _horner(coeffs: list[Fraction], point: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * point + c
    return acc


def _ratfunc_at(obj: dict, point: Fraction, label: str) -> Fraction:
    den = _horner(_poly(obj["den"]), point)
    _require(den != 0, f"{label}: denominator vanishes at q = {point}")
    return _horner(_poly(obj["num"]), point) / den


def _check_power_of_one_plus_q(obj: dict, label: str) -> None:
    """The denominator is (1+q)^k, monic, and the numerator keeps q = -1."""
    den = _poly(obj["den"])
    k = len(den) - 1
    _require(k >= 0, f"{label}: empty denominator")
    _require(den == [Fraction(comb(k, i)) for i in range(k + 1)],
             f"{label}: denominator is not (1+q)^{k}")
    if k > 0:
        _require(_horner(_poly(obj["num"]), Fraction(-1)) != 0,
                 f"{label}: numerator vanishes at q = -1, so it shares a"
                 " factor with the denominator")


# -- verify_all ---------------------------------------------------------------

# Per-identity grids of the default acceptance run: (bound name, CLI flag,
# default).  The CLI caps --n-max/--m-max/--k-max/--s-max override every
# bound answering to that flag.
GRID_BOUNDS = {
    "eq2_symbolic": (("m", "m", 6), ("nshift", "n", 4)),
    "eq9_frobenius": (("n", "n", 10),),
    "thm1_reflection": (("n", "n", 8),),
    "thm2_value_at_two": (("n", "n", 8),),
    "thm3_integral": (("n", "n", 8),),
    "eq14_bernstein_moment": (("n", "n", 8), ("k", "k", 8)),
    "eq15_symmetry": (("n", "n", 10), ("k", "k", 10)),
    "thm4": (("n", "n", 8), ("k", "k", 8)),
    "cor5": (("n", "n", 8), ("k", "k", 8)),
    "thm6": (("n", "n", 6), ("m", "m", 6), ("k", "k", 6)),
    "cor7": (("n", "n", 6), ("m", "m", 6), ("k", "k", 6)),
    "thm8": (("s", "s", 3), ("n", "n", 4), ("k", "k", 4)),
    "cor9": (("s", "s", 3), ("n", "n", 4), ("k", "k", 4)),
}


def _grid(tag: str, b: dict) -> list[tuple[tuple[int, ...], bool]]:
    """(params, admissible) for every tuple of one identity's grid."""
    if tag == "eq2_symbolic":
        return [((m, s), s >= 1)
                for m in range(b["m"] + 1) for s in range(b["nshift"] + 1)]
    if tag in ("eq9_frobenius", "thm1_reflection"):
        return [((n,), True) for n in range(b["n"] + 1)]
    if tag in ("thm2_value_at_two", "thm3_integral"):
        return [((n,), n >= 1) for n in range(b["n"] + 1)]
    if tag in ("eq14_bernstein_moment", "eq15_symmetry", "thm4", "cor5"):
        always = tag == "eq15_symmetry"
        return [((n, k), always or k < n)
                for n in range(b["n"] + 1) for k in range(min(n, b["k"]) + 1)]
    if tag in ("thm6", "cor7"):
        return [((n, m, k), n + m > 2 * k)
                for n in range(b["n"] + 1) for m in range(b["m"] + 1)
                for k in range(min(n, m, b["k"]) + 1)]
    return [(ns + (k,), sum(ns) > s * k)
            for s in range(1, b["s"] + 1)
            for ns in product(range(b["n"] + 1), repeat=s)
            for k in range(min(min(ns), b["k"]) + 1)]


def expected_verify_counts(caps: dict[str, int]) -> tuple[int, int]:
    """(cases, skipped) of ``verify --all`` with the given flag caps.

    Cases are the admissible tuples plus the cross-checks the README
    describes: the reflection chain for 1 <= n <= the smallest n bound
    of thm1/thm2/thm3, the eq14 -> thm4 swap on thm4's admissible
    pairs, and the degenerations of thm8/cor9 at s = 1 and s = 2.
    """
    bounds = {
        tag: {name: caps.get(flag, default) for name, flag, default in spec}
        for tag, spec in GRID_BOUNDS.items()
    }
    cases = skipped = 0
    for tag in GRID_BOUNDS:
        for _, admissible in _grid(tag, bounds[tag]):
            if admissible:
                cases += 1
            else:
                skipped += 1
    cases += min(bounds[t]["n"] for t in
                 ("thm1_reflection", "thm2_value_at_two", "thm3_integral"))
    cases += sum(ok for _, ok in _grid("thm4", bounds["thm4"]))
    for multi in ("thm8", "cor9"):
        for s in (1, 2):
            if bounds[multi]["s"] >= s:
                grid = _grid(multi, {**bounds[multi], "s": s})
                cases += sum(ok for p, ok in grid if len(p) == s + 1)
    return cases, skipped


def check_verify_all(text: str, exit_code: int, spec: dict,
                     rng: random.Random) -> None:
    _require(exit_code == 0, f"exit status {exit_code}")
    report = json.loads(text)
    cases, skipped = expected_verify_counts(spec["caps"])
    _require(report["failed"] == 0 and report["failures"] == [],
             f"{report['failed']} identity cases failed")
    _require(report["cases"] == cases,
             f"cases {report['cases']}, the grid gives {cases}")
    _require(report["passed"] == cases,
             f"passed {report['passed']}, the grid gives {cases}")
    _require(report["skipped"] == skipped,
             f"skipped {report['skipped']}, the grid gives {skipped}")
    _require(len(report["exploratory"]) == skipped,
             "one exploratory record per skipped tuple")


# -- table_deep ---------------------------------------------------------------


def check_table(text: str, exit_code: int, spec: dict,
                rng: random.Random) -> None:
    _require(exit_code == 0, f"exit status {exit_code}")
    rows = json.loads(text)["rows"]
    n_max = spec["n_max"]
    _require([row["n"] for row in rows] == list(range(n_max + 1)),
             f"rows are not n = 0 .. {n_max}")
    classical = classical_euler(n_max)
    for row in rows:
        n = row["n"]
        _check_power_of_one_plus_q(row["e_nq"], f"row {n} e_nq")
        _check_power_of_one_plus_q(row["frobenius"], f"row {n} frobenius")
        _require(_rational(row["e_at_q1"]) == classical[n],
                 f"row {n}: e_at_q1 is not the classical Euler number")
    for q0 in sample_points(rng):
        euler = q_euler_at(q0, n_max)
        frob = frobenius_at(-1 / q0, n_max)
        for row in rows:
            n = row["n"]
            _require(_ratfunc_at(row["e_nq"], q0, f"row {n}") == euler[n],
                     f"row {n}: e_nq at q = {q0} differs from the recurrence")
            _require(_ratfunc_at(row["frobenius"], q0, f"row {n}") == frob[n],
                     f"row {n}: frobenius at q = {q0} differs from"
                     " H_n(-1/q0)")


# -- padic_sweep --------------------------------------------------------------


def _valuation(residue: int, p: int, M: int) -> int:
    if residue % p**M == 0:
        return M
    v = 0
    while residue % p == 0:
        residue //= p
        v += 1
    return v


def _q_euler_poly_at(n: int, x0: int, q0: int) -> Fraction:
    """E_n(x0, q0) = sum_l C(n,l) E_l(q0) x0^(n-l)."""
    euler = q_euler_at(Fraction(q0), n)
    return sum(comb(n, l) * euler[l] * x0 ** (n - l) for l in range(n + 1))


def _partial_sum(n: int, x0: int, q0: int, p: int, N: int, M: int) -> int:
    pm = p**M
    return sum((-1) ** y * q0**y * (x0 + y) ** n for y in range(p**N)) % pm


def check_padic(text: str, exit_code: int, spec: dict,
                rng: random.Random) -> None:
    _require(exit_code == 0, f"exit status {exit_code}")
    payload = json.loads(text)
    p, M, depth = spec["p"], spec["precision"], spec["depth"]
    q0 = 1 + p
    pm = p**M
    _require(payload["failures"] == [], f"reported {payload['failures']}")
    _require((payload["p"], payload["M"], payload["q0"], payload["depth"])
             == (p, M, q0, depth), "p, M, q0 or depth differ from the input")
    reports = payload["reports"]
    expected = [(n, x0) for n in range(spec["n_max"] + 1) for x0 in spec["x0"]]
    _require([(r["n"], r["x0"]) for r in reports] == expected,
             "reports do not cover n = 0 .. n_max times the x0 values")
    for r in reports:
        label = f"n={r['n']} x0={r['x0']}"
        exact = _q_euler_poly_at(r["n"], r["x0"], q0)
        target = exact.numerator * pow(exact.denominator, -1, pm) % pm
        _require(int(r["target"]) == target,
                 f"{label}: target is not E_n(x0, q0) mod p^M")
        rows = r["rows"]
        _require([row["N"] for row in rows] == list(range(1, depth + 1)),
                 f"{label}: depths are not 1 .. {depth}")
        vals = [row["val"] for row in rows]
        for row in rows:
            _require(row["val"] == _valuation(int(row["S"]) - target, p, M),
                     f"{label}: val at N={row['N']} is not v_p(S - target)")
        _require(all(a <= b for a, b in zip(vals, vals[1:])),
                 f"{label}: valuations decrease")
        _require(vals[M - 1] >= M, f"{label}: valuation below M at depth M")
    # Direct summation is exponential in N, so recompute S_N only for the
    # shallow depths of a few seeded reports.
    for r in rng.sample(reports, min(SAMPLE_POINTS, len(reports))):
        for row in r["rows"][: min(3, depth)]:
            direct = _partial_sum(r["n"], r["x0"], q0, p, row["N"], M)
            _require(int(row["S"]) == direct,
                     f"n={r['n']} x0={r['x0']}: S at N={row['N']} differs"
                     " from the direct sum")


# -- frobenius_general ----------------------------------------------------------


def check_frobenius(text: str, exit_code: int, spec: dict,
                    rng: random.Random) -> None:
    _require(exit_code == 0, f"exit status {exit_code}")
    values = json.loads(text)["values"]
    n_max = spec["n_max"]
    _require(len(values) == n_max + 1, f"expected {n_max + 1} values")
    u_num = [Fraction(c) for c in spec["u_num"]]
    u_den = [Fraction(c) for c in spec["u_den"]]
    for n, value in enumerate(values):
        den = _poly(value["den"])
        _require(den and den[-1] == 1, f"H_{n}: denominator is not monic")
    for q0 in sample_points(rng):
        u0 = _horner(u_num, q0) / _horner(u_den, q0)
        reference = frobenius_at(u0, n_max)
        for n, value in enumerate(values):
            _require(_ratfunc_at(value, q0, f"H_{n}") == reference[n],
                     f"H_{n}(u) at q = {q0} differs from the recurrence")
