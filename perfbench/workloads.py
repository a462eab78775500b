"""The four benchmark workloads: what each runs, its size and its check.

Each workload is one repetition of a qeuler job, run in a fresh
interpreter by ``child.py``.  ``job`` is the JSON-ready description
handed to the child; ``items`` is the number of work units one
repetition completes, for ``items_per_s``; ``check`` is the independent
output check from ``checks``.  ``TINY`` holds the same workloads at the
sizes the smoke test uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import checks


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict
    job: dict
    items: int
    item_unit: str
    check: Callable


def verify_all(caps: dict[str, int]) -> Workload:
    argv = ["verify", "--all"]
    for flag in sorted(caps):
        argv += [f"--{flag}-max", str(caps[flag])]
    cases, _ = checks.expected_verify_counts(caps)
    return Workload("verify_all", {"caps": caps}, {"argv": argv}, cases,
                    "verified cases", checks.check_verify_all)


def table_deep(n_max: int) -> Workload:
    argv = ["table", "--n-max", str(n_max), "--format", "json"]
    return Workload("table_deep", {"n_max": n_max}, {"argv": argv},
                    n_max + 1, "table rows", checks.check_table)


def padic_sweep(p: int, precision: int, depth: int, n_max: int) -> Workload:
    spec = {"p": p, "precision": precision, "depth": depth, "n_max": n_max,
            "x0": [0, 1, 2]}  # the CLI's default x0 values
    argv = ["padic", "--p", str(p), "--precision", str(precision),
            "--depth", str(depth), "--n-max", str(n_max)]
    terms = (n_max + 1) * len(spec["x0"]) * p**depth
    return Workload("padic_sweep", spec, {"argv": argv}, terms,
                    "partial-sum terms", checks.check_padic)


def frobenius_general(n_max: int) -> Workload:
    # u = (q+2)/(q^2+3): neither q nor 1+q divides its denominator or
    # that of u - 1 = -(q^2-q+1)/(q^2+3), so every canonicalisation of
    # H_n(u) needs the general gcd, never only the {q, 1+q} factors.
    spec = {"n_max": n_max, "u_num": [2, 1], "u_den": [3, 0, 1]}
    job = {"frobenius": spec}
    return Workload("frobenius_general", spec, job, n_max + 1,
                    "Frobenius values", checks.check_frobenius)


WORKLOADS = {
    w.name: w
    for w in (
        verify_all({"n": 4, "s": 2}),
        table_deep(30),
        padic_sweep(p=5, precision=8, depth=8, n_max=6),
        frobenius_general(24),
    )
}

TINY = {
    w.name: w
    for w in (
        verify_all({"n": 2, "m": 2, "k": 1, "s": 2}),
        table_deep(4),
        padic_sweep(p=3, precision=2, depth=3, n_max=2),
        frobenius_general(4),
    )
}
