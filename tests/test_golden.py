"""Golden-output regression: the CLI's bytes in every format, pinned.

Each case runs ``qeuler`` in process through ``cli.main`` and compares
stdout, byte for byte, with a fixture under ``tests/golden/``.  The
``verify`` fixtures also pin the case counts of the ``xcheck_*``
cross-checks and the ``branch_notes`` of the piecewise identities.
Outputs too large to keep as fixtures are pinned by the SHA-256 of
stdout and the exit code, in ``tests/golden/digests.json``.

A change that is meant to alter the output regenerates the fixtures
and the digests with ``PYTHONPATH=src python tests/test_golden.py`` and
says why.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys

import pytest

from qeuler.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
DIGESTS = GOLDEN / "digests.json"

CASES = {
    "table_n12": ["table", "--n-max", "12"],
    "verify_all_n4_s2": ["verify", "--all", "--n-max", "4", "--s-max", "2"],
    "verify_all_n3_m2_k1_s3": ["verify", "--all", "--n-max", "3", "--m-max", "2",
                               "--k-max", "1", "--s-max", "3"],
    "padic_p5": ["padic", "--p", "5", "--precision", "4", "--depth", "5",
                 "--n-max", "4"],
    "padic_p11": ["padic", "--p", "11", "--q0", "12", "--precision", "6",
                  "--depth", "6", "--n-max", "8", "--x0", "6"],
    # one column per listed x0, in order, duplicates kept
    "padic_x0_repeat": ["padic", "--p", "5", "--precision", "4", "--depth", "5",
                        "--n-max", "3", "--x0", "2", "--x0", "0", "--x0", "2"],
}
FORMATS = ("json", "csv", "latex")

#: Reach runs whose outputs run to megabytes (JSON).
DIGEST_CASES = {
    "padic_p7_m40_n128": ["padic", "--p", "7", "--precision", "40",
                          "--depth", "40", "--n-max", "128"],
    "padic_p3_m500_n2": ["padic", "--p", "3", "--precision", "500",
                         "--depth", "500", "--n-max", "2"],
    # a negative base with q0 = 1 mod p^2
    "padic_p3_q0m8_m12_n16": ["padic", "--p", "3", "--q0", "-8", "--precision",
                              "12", "--depth", "12", "--n-max", "16",
                              "--x0", "5", "--x0", "0"],
    "table_n128": ["table", "--n-max", "128"],
    "verify_all_n12": ["verify", "--all", "--n-max", "12"],
    "verify_thm8_s4_n8": ["verify", "--id", "thm8", "--s-max", "4",
                          "--n-max", "8"],
    # the case log lists every ordered tuple of every orbit
    "verify_thm8_s4_n8_csv": ["verify", "--id", "thm8", "--s-max", "4",
                              "--n-max", "8", "--format", "csv"],
    "verify_thm6_cor7_n16": ["verify", "--id", "thm6", "--id", "cor7",
                             "--n-max", "16", "--m-max", "16", "--k-max", "16"],
    # left sides that share one primitive row up to content and q-shift
    "verify_eq14_thm4_cor5_n24": ["verify", "--id", "eq14", "--id", "thm4",
                                  "--id", "cor5", "--n-max", "24", "--k-max", "24"],
    "verify_eq2_m12_n60": ["verify", "--id", "eq2", "--m-max", "12",
                           "--n-max", "60"],
}


def stdout_digest(argv):
    """The SHA-256 of what ``qeuler ARGV`` writes to stdout, and its exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
            "exit": code}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(capsys, name, fmt):
    code = main(CASES[name] + ["--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"{name}.{fmt}").read_bytes()


@pytest.mark.parametrize("name", sorted(DIGEST_CASES))
def test_output_matches_digest(name):
    expected = json.loads(DIGESTS.read_text())
    assert sorted(expected) == sorted(DIGEST_CASES)
    assert stdout_digest(DIGEST_CASES[name]) == expected[name]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        for fmt in FORMATS:
            path = GOLDEN / f"{name}.{fmt}"
            if main(argv + ["--format", fmt, "--out", str(path)]) != 0:
                sys.exit(f"{name} {fmt} did not exit 0")
    digests = {name: stdout_digest(argv) for name, argv in DIGEST_CASES.items()}
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
