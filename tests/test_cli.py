"""End-to-end tests of the command line interface (in process)."""

import errno
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qeuler import cli, euler, padic
from qeuler.cli import main
from qeuler.euler import EulerCache
from qeuler.exactalg import RatFunc
from qeuler.identities import REGISTRY, Identity, default_ranges, run_suite


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- table --------------------------------------------------------------


def test_table_json(capsys):
    code, out, _ = run(capsys, ["table", "--n-max", "2", "--format", "json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["n"] for row in rows] == [0, 1, 2]
    e0 = rows[0]["e_nq"]
    assert e0["num"] == [{"num": "2", "den": "1"}]
    assert e0["den"] == [{"num": "1", "den": "1"}, {"num": "1", "den": "1"}]
    assert rows[1]["e_at_q1"] == {"num": "-1", "den": "2"}


def test_table_csv_single_row(capsys):
    code, out, _ = run(capsys, ["table", "--n-max", "0", "--format", "csv"])
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert lines[0] == "n,e_nq,e_at_q1,frobenius"
    assert len(lines) == 2
    assert lines[1].startswith("0,")


def test_table_latex_classical_column(capsys):
    code, out, _ = run(capsys, ["table", "--n-max", "10", "--format", "latex"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11
    assert all(line.endswith("\\\\") for line in lines)
    classical = [line.split("&")[2].strip() for line in lines]
    assert classical == ["$1$", "$-\\frac{1}{2}$", "$0$", "$\\frac{1}{4}$",
                         "$0$", "$-\\frac{1}{2}$", "$0$", "$\\frac{17}{8}$",
                         "$0$", "$-\\frac{31}{2}$", "$0$"]


# -- verify -------------------------------------------------------------


def test_verify_single_identity_single_case(capsys):
    code, out, _ = run(capsys, ["verify", "--id", "thm2", "--n-max", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["cases"] == 1
    assert report["passed"] == 1
    assert report["failed"] == 0
    assert report["failures"] == []


def test_verify_unknown_id(capsys):
    code, _, err = run(capsys, ["verify", "--id", "bogus"])
    assert code == 2
    for tag in REGISTRY:
        assert tag in err


def test_verify_ambiguous_prefix(capsys):
    code, _, err = run(capsys, ["verify", "--id", "thm"])
    assert code == 2
    code, out, err = run(capsys, ["verify", "--id", "cor"])
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "ambiguous" in err
    assert all(tag in err for tag in ("cor5", "cor7", "cor9"))


def test_verify_prefix_resolution(capsys):
    code, out, _ = run(capsys, ["verify", "--id", "eq15", "--n-max", "3",
                                "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "id,params,status"
    assert all(line.startswith("eq15_symmetry,") for line in lines[1:])
    assert all(line.endswith(",pass") for line in lines[1:])


def test_verify_id_conflicts_with_all(capsys):
    code, _, err = run(capsys, ["verify", "--id", "thm2", "--all"])
    assert code == 2


def test_verify_small_all(capsys):
    code, out, _ = run(capsys, ["verify", "--all", "--n-max", "2",
                                "--m-max", "2", "--k-max", "2", "--s-max", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["failed"] == 0
    assert report["cases"] > 0


def test_verify_latex_summary(capsys):
    code, out, _ = run(capsys, ["verify", "--id", "eq9", "--n-max", "4",
                                "--format", "latex"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["\\texttt{eq9\\_frobenius} & 5 & 5 & 0 \\\\"]


def test_verify_reports_failure_with_exit_1(capsys):
    broken = Identity(
        tag="always_wrong",
        description="deliberately false, for the failure path",
        bounds=(("n", "n", 1),),
        admissible=lambda p: True,
        lhs=lambda p: RatFunc(0),
        rhs=lambda p: RatFunc(1),
    )
    REGISTRY["always_wrong"] = broken
    try:
        code, out, _ = run(capsys, ["verify", "--id", "always_wrong"])
    finally:
        del REGISTRY["always_wrong"]
    assert code == 1
    report = json.loads(out)
    assert report["failed"] == 2
    assert report["failures"][0]["id"] == "always_wrong"


def _raise_off_the_grid(exc_type, monkeypatch):
    """Make eq2_symbolic's lhs raise exc_type at its inadmissible tuples."""
    identity = REGISTRY["eq2_symbolic"]

    def lhs(params):
        if not identity.admissible(params):
            raise exc_type("refused off the grid")
        return identity.lhs(params)

    rebuilt = Identity(*(lhs if name == "lhs" else getattr(identity, name)
                         for name in Identity.__slots__))
    monkeypatch.setitem(REGISTRY, "eq2_symbolic", rebuilt)


def test_exploratory_fault_is_internal_error(monkeypatch, capsys):
    _raise_off_the_grid(RuntimeError, monkeypatch)
    code, out, err = run(capsys, ["verify", "--id", "eq2_symbolic", "--m-max", "1",
                                  "--n-max", "1"])
    assert code == 4
    assert out == ""
    assert err == "error: internal error: RuntimeError: refused off the grid\n"


def test_exploratory_refusal_is_not_computed(monkeypatch):
    _raise_off_the_grid(ValueError, monkeypatch)
    report = run_suite(default_ranges(ids=["eq2_symbolic"], m_max=1, n_max=1))
    assert report.failed == 0
    assert report.exploratory
    for record in report.exploratory:
        assert record.params[1] == 0
        assert (record.computed, record.equal, record.note) == (
            False, None, "refused off the grid")


# -- padic --------------------------------------------------------------


def test_padic_small_grid(capsys):
    code, out, _ = run(capsys, ["padic", "--p", "3", "--precision", "3",
                                "--depth", "5", "--n-max", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["failures"] == []
    assert len(data["reports"]) == 9  # n in 0..2, x0 in {0, 1, 2}
    report = data["reports"][0]
    assert set(report) == {"p", "M", "q0", "n", "x0", "target", "rows"}
    assert isinstance(report["target"], str)
    assert all(isinstance(row["S"], str) for row in report["rows"])


def test_padic_rejects_composite_p(capsys):
    code, _, err = run(capsys, ["padic", "--p", "4"])
    assert code == 2
    assert "odd prime" in err


def test_padic_rejects_bad_base(capsys):
    code, _, err = run(capsys, ["padic", "--p", "3", "--q0", "2"])
    assert code == 2
    assert "q0" in err


def test_padic_rejects_shallow_depth(capsys):
    code, _, err = run(capsys, ["padic", "--p", "3", "--precision", "5",
                                "--depth", "3"])
    assert code == 2
    assert "depth" in err


def test_padic_csv(capsys):
    code, out, _ = run(capsys, ["padic", "--p", "5", "--n-max", "1",
                                "--x0", "0", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,M,q0,n,x0,N,S,val"
    assert len(lines) == 1 + 2 * 6  # two degrees, default depth 6


def test_padic_latex(capsys):
    code, out, _ = run(capsys, ["padic", "--p", "3", "--n-max", "0",
                                "--x0", "1", "--format", "latex"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["0 & 1 & 2 & yes \\\\"]


def test_padic_valuation_dip_above_floor_passes(capsys):
    # S_1 meets the target to one extra digit: valuations 4, 3, 4, 5, 6, 6
    argv = ["padic", "--p", "11", "--q0", "12", "--precision", "6",
            "--depth", "6", "--n-max", "8", "--x0", "6"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    data = json.loads(out)
    assert data["failures"] == []
    assert [row["val"] for row in data["reports"][-1]["rows"]] \
        == [4, 3, 4, 5, 6, 6]
    code, out, _ = run(capsys, argv + ["--format", "latex"])
    assert code == 0
    assert out.strip().splitlines()[-1] == "8 & 6 & 5 & no \\\\"


def test_padic_large_prime(capsys):
    code, out, _ = run(capsys, ["padic", "--p", "101", "--precision", "3",
                                "--depth", "5", "--n-max", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["failures"] == []
    assert len(data["reports"]) == 12
    assert all(len(report["rows"]) == 5 for report in data["reports"])


def test_padic_mersenne_61_prime(capsys):
    # 2^61 - 1 is prime; --p is tested by Miller-Rabin, not trial division.
    code, out, _ = run(capsys, ["padic", "--p", str(2**61 - 1), "--precision",
                                "2", "--depth", "2", "--n-max", "1",
                                "--format", "latex"])
    assert code == 0
    assert len(out.strip().splitlines()) == 6


def test_padic_p_above_the_primality_bound_exits_2(capsys):
    code, out, err = run(capsys, ["padic", "--p", str(padic._PRIMALITY_BOUND + 2)])
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1


def test_padic_fails_below_the_floor(capsys, monkeypatch):
    def low_at_depth_two(*args, **kwargs):
        reports = []
        for report in padic._convergence_reports(*args, **kwargs):
            entries = list(report.entries)
            entries[1] = padic.DepthEntry(2, entries[1].partial_sum, 1)
            reports.append(padic.ConvergenceReport(
                report.p, report.M, report.q0, report.n, report.x0,
                report.target, tuple(entries)))
        return reports

    monkeypatch.setattr(cli, "_convergence_reports", low_at_depth_two)
    code, out, _ = run(capsys, ["padic", "--p", "3", "--precision", "3",
                                "--depth", "4", "--n-max", "0", "--x0", "0"])
    assert code == 1
    assert json.loads(out)["failures"] == [
        "n=0 x0=0: valuation 1 at depth 2 is below the floor 2"]


def test_padic_runs_one_recursion_per_command(capsys, monkeypatch):
    recursions, primality = [], []
    original_sums, original_prime = padic._partial_sums, padic.is_odd_prime

    def counting_sums(n, x0s, *rest):
        recursions.append((n, x0s))
        return original_sums(n, x0s, *rest)

    def counting_prime(p):
        primality.append(p)
        return original_prime(p)

    monkeypatch.setattr(padic, "_partial_sums", counting_sums)
    monkeypatch.setattr(padic, "is_odd_prime", counting_prime)
    code, out, _ = run(capsys, ["padic", "--p", "5", "--precision", "8",
                                "--depth", "8", "--n-max", "6"])
    assert code == 0
    assert recursions == [(6, (0, 1, 2))]
    assert primality == [5]
    reports = json.loads(out)["reports"]
    assert [(r["n"], r["x0"]) for r in reports] == [
        (n, x0) for n in range(7) for x0 in (0, 1, 2)]


# -- output redirection and usage errors ---------------------------------


def test_out_writes_file(tmp_path, capsys):
    path = tmp_path / "table.json"
    code, out, _ = run(capsys, ["table", "--n-max", "1", "--out", str(path)])
    assert code == 0
    assert out == ""
    rows = json.loads(path.read_text())["rows"]
    assert len(rows) == 2


def test_out_unwritable_is_io_error(capsys):
    code, _, err = run(capsys, ["table", "--n-max", "1",
                                "--out", "/no/such/dir/table.json"])
    assert code == 3
    assert "cannot write" in err


# Inputs the library refuses with a ValueError; main reports each as one line.
LIBRARY_REFUSALS = [
    ["padic", "--p", "9"],
    ["padic", "--p", "3", "--q0", "2"],
    ["table", "--n-max", "129"],
    ["verify", "--id", "bogus"],
]


@pytest.mark.parametrize("argv", [
    [],
    ["bogus-subcommand"],
    ["table", "--n-max", "-1"],
    ["table", "--format", "yaml"],
    ["padic", "--p", "0"],
    ["verify", "--s-max", "0"],
    *LIBRARY_REFUSALS,
    ["frob"],
    ["padic", "--p"],
    ["padic", "--bogus", "1"],
    ["verify", "--all=1"],
])
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv, message", [
    (["table", "--n-max", "x"], "argument --n-max: not an integer: 'x'"),
    (["table", "--n-max", "-1"], "argument --n-max: must be >= 0: -1"),
    (["verify", "--s-max", "0"], "argument --s-max: must be >= 1: 0"),
    (["padic", "--p", "-1"], "argument --p: must be >= 1: -1"),
    (["padic", "--q0", "1.5"], "argument --q0: not an integer: '1.5'"),
])
def test_integer_flag_messages(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


# The flag-parsing refusals besides the integer checks above.
@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["frob"], "argument command: invalid choice: 'frob'"
               " (choose from 'table', 'verify', 'padic')"),
    (["padic", "--x0", "0", "--p"], "argument --p: expected one argument"),
    (["padic", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["table", "--format", "yaml"], "argument --format: invalid choice: 'yaml'"
                                    " (choose from 'json', 'csv', 'latex')"),
    (["verify", "--all=1"], "argument --all: ignored explicit argument '1'"),
])
def test_parser_refusal_messages(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


# Each argv, and the same flags spelled out in full.
_PADIC_SPELLED = ["padic", "--precision", "4", "--depth", "4", "--n-max", "1",
                  "--x0", "0"]


@pytest.mark.parametrize("argv, spelled", [
    (["padic", "--prec", "4", "--depth", "4", "--n-max", "1", "--x0", "0"],
     _PADIC_SPELLED),
    (["padic", "--precision=4", "--depth=4", "--n", "1", "--x0=0"], _PADIC_SPELLED),
    (["padic", "--pr", "4", "--depth", "4", "--n-max", "1", "--x0", "0"],
     _PADIC_SPELLED),
    (["padic", "--p", "5", "--p", "7", "--n-max", "1", "--x0", "0"],
     ["padic", "--p", "7", "--n-max", "1", "--x0", "0"]),
    (["padic", "--p", "3", "--q0", "-8", "--n-max", "1", "--x0", "0"],
     ["padic", "--p=3", "--q0=-8", "--n-max=1", "--x0=0"]),
    (["padic", "--n-max", "1", "--x0", "2", "--x0", "0", "--x0", "2", "--x0", "1"],
     ["padic", "--n-max=1", "--x0=2", "--x0=0", "--x0=2", "--x0=1"]),
])
def test_flag_spellings_agree(capsys, argv, spelled):
    code, out, _ = run(capsys, argv)
    assert code == 0 and out
    assert run(capsys, spelled)[:2] == (code, out)


def test_repeated_flags(capsys):
    # a scalar flag keeps its last value, a repeatable one every value in order
    code, out, _ = run(capsys, ["padic", "--p", "5", "--p", "7", "--q0", "-13",
                                "--n-max", "0", "--x0", "2", "--x0", "0",
                                "--x0", "2", "--x0", "1"])
    assert code == 0
    data = json.loads(out)
    assert (data["p"], data["q0"]) == (7, -13)
    assert [report["x0"] for report in data["reports"]] == [2, 0, 2, 1]


# What -h prints for qeuler and for each command: every command or flag
# with its help string ("" for none).
_OUTPUT_HELP = {
    "--format": "output format (default json)",
    "--out": "write output to PATH instead of stdout",
}
HELP = {
    None: {"table": "print q-Euler numbers",
           "verify": "verify identities over grids",
           "padic": "p-adic convergence checks"},
    "table": {"--n-max": "largest index n (default 10)", **_OUTPUT_HELP},
    "verify": {"--all": "select every identity in the registry",
               "--id": "identity id (unique prefix accepted, repeatable)",
               "--n-max": "", "--m-max": "", "--k-max": "", "--s-max": "",
               **_OUTPUT_HELP},
    "padic": {"--p": "odd prime (default 3)",
              "--precision": "work modulo p**M (default 3)",
              "--depth": "largest truncation exponent (default 6)",
              "--q0": "integer base, q0 = 1 (mod p) (default 1+p)",
              "--n-max": "largest polynomial degree (default 4)",
              "--x0": "evaluation point (repeatable, default 0 1 2)",
              **_OUTPUT_HELP},
}


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", [None, "table", "verify", "padic"])
def test_help(capsys, command, flag):
    code, out, err = run(capsys, [command, flag] if command else [flag])
    assert code == 0
    assert err == ""
    text = " ".join(out.split())
    entries = {"--help": "show this help message and exit", **HELP[command]}
    for name, help_text in entries.items():
        # the name, its metavar if any, then its help string
        assert re.search(rf"(^| ){re.escape(name)}( \S+)? {re.escape(help_text)}",
                         text), name


def test_commands_load_no_argparse(tmp_path):
    # argparse, with the gettext and locale it imports, cost more start-up
    # time than the padic computation itself
    script = "\n".join([
        "import sys",
        "from qeuler import cli",
        f"assert cli.main(['padic', '--n-max', '1',"
        f" '--out', {str(tmp_path / 'p')!r}]) == 0",
        f"assert cli.main(['verify', '--id', 'eq9', '--n-max', '2',"
        f" '--out', {str(tmp_path / 'v')!r}]) == 0",
        "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


class _ClosedPipe:
    """A stdout whose reader has gone away."""

    def __init__(self, fail_on):
        self.fail_on = fail_on

    def write(self, text):
        if self.fail_on == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("fail_on", ["write", "flush"])
def test_broken_pipe_is_io_error(monkeypatch, capsys, fail_on):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe(fail_on))
    code = main(["table", "--n-max", "2"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("\n") == 1 and "error:" in err


@pytest.mark.parametrize("n_max, read", [("25", 10), ("1", 0)])
def test_broken_pipe_through_a_real_pipe(n_max, read):
    # The reader leaves either after 10 bytes of a table larger than a
    # pipe buffer, or before a small table is written.  Buffered stdout,
    # as by default, keeps what it could not write for the interpreter's
    # exit-time flush.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "qeuler", "table", "--n-max", n_max],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.read(read)) == read
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 3
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.count("\n") == 1


class _FullDevice:
    """A stdout on a device with no space left."""

    def write(self, text):
        return len(text)

    def flush(self):
        raise OSError(errno.ENOSPC, "No space left on device")


def test_full_stdout_is_io_error(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _FullDevice())
    code = main(["table", "--n-max", "2"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "error: cannot write to stdout: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_stdout_redirected_to_dev_full():
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "qeuler", "table", "--n-max", "2"],
            stdout=full, stderr=subprocess.PIPE, text=True,
        )
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["table", "--n-max", "6"],
    ["verify", "--id", "eq9", "--n-max", "6"],
])
def test_cache_cap_is_usage_error(monkeypatch, capsys, argv):
    cache = EulerCache(n_max=5)
    monkeypatch.setattr(euler, "_DEFAULT_CACHE", cache)
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "n_max=5" in err
    assert len(cache._numbers) == 1  # refused before any value beyond E_0


def test_padic_refuses_index_above_cap_before_any_report(monkeypatch, capsys):
    calls = []
    for name in ("_partial_sums", "euler_number_q"):
        monkeypatch.setattr(padic, name,
                            lambda *args, name=name: calls.append((name, args)))
    code, out, err = run(capsys, ["padic", "--n-max", "129"])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: index 129 exceeds")
    assert calls == []


def test_internal_error_is_one_line_and_exit_4(monkeypatch, capsys):
    def broken(ranges):
        raise RuntimeError("boom\nsecond line")
    monkeypatch.setattr(cli, "run_suite", broken)
    code, out, err = run(capsys, ["verify", "--id", "eq9"])
    assert code == 4
    assert out == ""
    assert err == "error: internal error: RuntimeError: boom second line\n"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qeuler", "table", "--n-max", "0",
         "--format", "csv"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "n,e_nq,e_at_q1,frobenius"


# -- the JSON writer -----------------------------------------------------

# quotes, backslashes, control and non-ASCII characters and lone surrogates
JSON_TEXT = st.text() | st.text(st.characters(categories=["Cs"])) | st.text(
    st.sampled_from('a"\\/\x00\n\x1f\x7f\u00e9\u2028\ud800\udfff\U0001f600'))
JSON_INTS = st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-2**64)
JSON_VALUES = st.recursive(
    JSON_TEXT | JSON_INTS | st.booleans() | st.none(),
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(JSON_TEXT, children)),
)


@given(JSON_VALUES)
def test_json_writer_matches_the_stdlib(value):
    assert cli._json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [[], (), {}, [[], {}, ()], {"": [{}]},
                                   [True, False, None, 1, -2**70], 2**64])
def test_json_writer_edge_values(value):
    assert cli._json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [1.0, 0.0, Fraction(1, 2), {1}, {1: 2},
                                   [1, {"a": 1.0}], {"a": {True: 1}}])
def test_json_writer_refuses_other_values(value):
    with pytest.raises(TypeError):
        cli._json(value)


def test_unserialisable_output_is_internal_error(monkeypatch, capsys):
    monkeypatch.setattr(padic.DepthEntry, "to_json", lambda self: 0.5)
    code, out, err = run(capsys, ["padic", "--n-max", "0"])
    assert code == 4
    assert out == ""
    assert err == ("error: internal error: TypeError: Object of type float"
                   " is not JSON serializable\n")
