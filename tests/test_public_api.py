"""The package's public surface: each module's ``__all__``, re-exported once."""

import os
import subprocess
import sys

import qeuler
from qeuler import bernstein, euler, exactalg, identities, padic

MODULES = (exactalg, euler, bernstein, identities, padic)

# Every name the package exported before it re-exported the module lists,
# less calibrate_truncation_slack: the padic docstring now proves the floor
# that it measured.
EXPORTED_BEFORE = [
    "CALIBRATED_SLACK", "ConvergenceReport", "DepthEntry", "EulerCache",
    "IntegrandExpr", "MINUS_Q_INVERSE", "NonUnitError", "PAdic", "PoleError",
    "PolyQ", "REGISTRY", "RatFunc", "Rational", "SideConditionError",
    "SuiteReport", "VerificationResult", "XPoly", "bernstein_basis",
    "bernstein_operator", "binomial", "classical_euler_number",
    "default_ranges", "euler_number_q",
    "euler_number_q_inverse", "euler_poly_q", "fermionic_partial_sum",
    "frobenius_euler", "is_odd_prime", "make_rational", "moment_reduce",
    "padic_from_rational", "poly_gcd", "q", "rational_from_json",
    "rational_to_json", "reflection_chain", "run_suite",
    "shift_identity_check_numeric", "table_rows", "verify_identity",
    "witt_convergence_check", "x",
]


def test_no_exported_name_is_lost():
    assert len(EXPORTED_BEFORE) == 42
    assert set(EXPORTED_BEFORE) <= set(qeuler.__all__)


def test_package_all_is_the_module_lists_in_order():
    expected = [name for module in MODULES for name in module.__all__]
    assert qeuler.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_every_name_is_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(qeuler, name) is getattr(module, name), name


def test_import_loads_no_dataclasses_inspect_or_csv():
    # -S keeps site-packages' own imports out of the count; qeuler needs none.
    # dataclasses pulls in inspect, ast, dis and tokenize; csv is for
    # --format csv alone.
    code = ("import sys, qeuler, qeuler.cli; "
            "print(*(m for m in ('dataclasses', 'inspect', 'csv') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(qeuler.__file__))}
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split() == []
