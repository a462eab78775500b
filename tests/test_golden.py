"""Golden-output regression: the CLI's bytes in every format, pinned.

Each case runs ``qeuler`` in process through ``cli.main`` and compares
stdout, byte for byte, with a fixture under ``tests/golden/``.  The
``verify`` fixtures also pin the case counts of the ``xcheck_*``
cross-checks and the ``branch_notes`` of the piecewise identities.

A change that is meant to alter the output regenerates the fixtures
with ``PYTHONPATH=src python tests/test_golden.py`` and says why.
"""

import pathlib
import sys

import pytest

from qeuler.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = {
    "table_n12": ["table", "--n-max", "12"],
    "verify_all_n4_s2": ["verify", "--all", "--n-max", "4", "--s-max", "2"],
    "verify_all_n3_m2_k1_s3": ["verify", "--all", "--n-max", "3", "--m-max", "2",
                               "--k-max", "1", "--s-max", "3"],
    "padic_p5": ["padic", "--p", "5", "--precision", "4", "--depth", "5",
                 "--n-max", "4"],
    "padic_p11": ["padic", "--p", "11", "--q0", "12", "--precision", "6",
                  "--depth", "6", "--n-max", "8", "--x0", "6"],
}
FORMATS = ("json", "csv", "latex")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(capsys, name, fmt):
    code = main(CASES[name] + ["--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"{name}.{fmt}").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        for fmt in FORMATS:
            path = GOLDEN / f"{name}.{fmt}"
            if main(argv + ["--format", fmt, "--out", str(path)]) != 0:
                sys.exit(f"{name} {fmt} did not exit 0")
