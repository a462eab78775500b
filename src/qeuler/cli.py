"""Command line front end.

Three subcommands:

``table``
    Print the first rows of the q-Euler table: E_{n,q}, its value at
    q = 1 (the classical Euler number) and the Frobenius-Euler number
    H_n(-1/q) it rescales.

``verify``
    Run the identity suite over parameter grids and report pass/fail
    counts.  Identity ids may be given as unique prefixes.

``padic``
    Run the truncated fermionic sum against the exact q-Euler
    polynomial value and report how fast the p-adic valuation of the
    error grows with the truncation depth.  A run fails when some depth
    N falls below the floor min(N - slack, M), or when M is not reached
    by depth M + slack, where slack is 0 (``qeuler.padic`` proves the
    floor); a valuation that dips while staying above the floor is
    reported (the LaTeX ``mono`` column) but does not fail.

Exit codes: 0 success, 1 an identity or convergence check failed,
2 usage error, 3 output could not be written (to the ``--out`` file or
to stdout), 4 internal error.  Exit 2 covers any input the library
refuses with a ValueError; any other exception is a fault of the
program and exits 4.  Either way ``main`` prints one stderr line and no
traceback.  Only checks the library does not make live here.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

from .euler import _check_cap, _table_values, table_rows
from .exactalg import _fraction_latex
from .identities import REGISTRY, default_ranges, run_suite
from .padic import CALIBRATED_SLACK, _convergence_reports

FORMATS = ("json", "csv", "latex")


def _int_flag(low: int | None = None):
    """The argparse type of an integer flag, at least ``low`` when given."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}: {text}")
        return value
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qeuler",
        description="Exact q-Euler numbers, identity verification, p-adic checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="print q-Euler numbers")
    table.add_argument("--n-max", type=_int_flag(0), default=10,
                       help="largest index n (default 10)")
    _add_output_flags(table)
    table.set_defaults(handler=cmd_table)

    verify = sub.add_parser("verify", help="verify identities over grids")
    verify.add_argument("--all", action="store_true",
                        help="select every identity in the registry")
    verify.add_argument("--id", action="append", dest="ids", metavar="TAG",
                        help="identity id (unique prefix accepted, repeatable)")
    verify.add_argument("--n-max", type=_int_flag(0), default=None)
    verify.add_argument("--m-max", type=_int_flag(0), default=None)
    verify.add_argument("--k-max", type=_int_flag(0), default=None)
    verify.add_argument("--s-max", type=_int_flag(1), default=None)
    _add_output_flags(verify)
    verify.set_defaults(handler=cmd_verify)

    padic = sub.add_parser("padic", help="p-adic convergence checks")
    padic.add_argument("--p", type=_int_flag(1), default=3, help="odd prime (default 3)")
    padic.add_argument("--precision", type=_int_flag(1), default=3, metavar="M",
                       help="work modulo p**M (default 3)")
    padic.add_argument("--depth", type=_int_flag(1), default=6, metavar="N",
                       help="largest truncation exponent (default 6)")
    padic.add_argument("--q0", type=_int_flag(), default=None,
                       help="integer base, q0 = 1 (mod p) (default 1+p)")
    padic.add_argument("--n-max", type=_int_flag(0), default=4,
                       help="largest polynomial degree (default 4)")
    padic.add_argument("--x0", action="append", dest="x0s", type=_int_flag(0),
                       help="evaluation point (repeatable, default 0 1 2)")
    _add_output_flags(padic)
    padic.set_defaults(handler=cmd_padic)

    return parser


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=FORMATS, default="json",
                     help="output format (default json)")
    sub.add_argument("--out", default=None, metavar="PATH",
                     help="write output to PATH instead of stdout")


def _emit(text: str, out_path: str | None) -> int:
    """Write ``text``, ending in one newline, to stdout or to a file.

    Returns 0, or 3 when the write fails.
    """
    to_stdout = out_path is None or out_path == "-"
    if not text.endswith("\n"):
        text += "\n"
    try:
        if to_stdout:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
    except OSError as exc:
        if to_stdout:
            _point_stdout_at_devnull()
        target = "to stdout" if to_stdout else out_path
        print(f"error: cannot write {target}: {exc}", file=sys.stderr)
        return 3
    return 0


def _point_stdout_at_devnull() -> None:
    """Send what stdout still buffers to the null device.

    The interpreter flushes stdout again at exit; on a closed pipe or a
    full device that flush would fail once more, print "Exception
    ignored" and exit 120.
    """
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, sys.stdout.fileno())
    except (AttributeError, OSError, ValueError):
        pass  # a stream with no file descriptor has no pipe to flush into
    finally:
        os.close(devnull)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _csv_text(header: list[str], rows) -> str:
    import csv  # here, so that runs in the other formats never load it

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


# -- table ------------------------------------------------------------


def cmd_table(args: argparse.Namespace) -> int:
    n_max = args.n_max
    if args.format == "json":
        text = json.dumps({"rows": table_rows(n_max)}, indent=2)
    elif args.format == "csv":
        text = _csv_text(
            ["n", "e_nq", "e_at_q1", "frobenius"],
            ([n, str(e), str(classical), str(frob)]
             for n, e, classical, frob in _table_values(n_max)),
        )
    else:
        text = "\n".join(
            f"{n} & ${e.latex()}$ & ${_fraction_latex(classical)}$"
            f" & ${frob.latex()}$ \\\\"
            for n, e, classical, frob in _table_values(n_max)
        )
    return _emit(text, args.out)


# -- verify -----------------------------------------------------------


def _resolve_identity_token(token: str) -> list[str]:
    """The tags a --id token names: itself if exact, else every tag it
    prefixes, else itself again for default_ranges to refuse."""
    if token in REGISTRY:
        return [token]
    return [tag for tag in REGISTRY if tag.startswith(token)] or [token]


def cmd_verify(args: argparse.Namespace) -> int:
    if args.ids and args.all:
        return _usage_error("--id and --all are mutually exclusive")
    ids = None
    if args.ids:
        ids = []
        for token in args.ids:
            matches = _resolve_identity_token(token)
            if len(matches) > 1:
                return _usage_error(f"ambiguous identity id {token!r}; "
                                    f"matches: {', '.join(matches)}")
            (tag,) = matches
            if tag not in ids:
                ids.append(tag)
    ranges = default_ranges(ids=ids, n_max=args.n_max, m_max=args.m_max,
                            k_max=args.k_max, s_max=args.s_max)
    report = run_suite(ranges)

    if args.format == "json":
        text = json.dumps(report.to_json(), indent=2)
    elif args.format == "csv":
        text = _csv_text(
            ["id", "params", "status"],
            ([tag, " ".join(str(p) for p in params), status]
             for tag, params, status in report.case_log),
        )
    else:
        lines = []
        for tag in ranges:
            cases = [row for row in report.case_log if row[0] == tag]
            passed = sum(1 for row in cases if row[2] == "pass")
            failed = sum(1 for row in cases if row[2] == "fail")
            lines.append(f"\\texttt{{{_latex_escape(tag)}}} & {len(cases)}"
                         f" & {passed} & {failed} \\\\")
        text = "\n".join(lines)

    code = _emit(text, args.out)
    if code != 0:
        return code
    return 0 if report.failed == 0 else 1


def _latex_escape(text: str) -> str:
    return text.replace("_", "\\_")


# -- padic ------------------------------------------------------------


def cmd_padic(args: argparse.Namespace) -> int:
    p = args.p
    precision = args.precision
    depth = args.depth
    q0 = args.q0 if args.q0 is not None else 1 + p
    threshold = precision + CALIBRATED_SLACK
    if depth < threshold:
        return _usage_error(
            f"--depth {depth} is too small to decide convergence to"
            f" precision {precision}; need at least {threshold}")
    _check_cap(args.n_max)
    x0s = args.x0s or (0, 1, 2)

    # one recursion serves every (n, x0); reports come in (n, x0) order
    reports = _convergence_reports(range(args.n_max + 1), x0s, p, q0,
                                   precision, depth)
    failures = []
    for report in reports:
        n, x0 = report.n, report.x0
        for entry in report.entries:
            floor = min(entry.N - CALIBRATED_SLACK, precision)
            if entry.valuation < floor:
                failures.append(
                    f"n={n} x0={x0}: valuation {entry.valuation} at"
                    f" depth {entry.N} is below the floor {floor}")
        reached = report.reached_at()
        if reached is None or reached > threshold:
            failures.append(
                f"n={n} x0={x0}: valuation did not reach {precision}"
                f" by depth {threshold}")

    if args.format == "json":
        payload = {
            "p": p,
            "M": precision,
            "q0": q0,
            "depth": depth,
            "slack": CALIBRATED_SLACK,
            "reports": [report.to_json() for report in reports],
            "failures": failures,
        }
        text = json.dumps(payload, indent=2)
    elif args.format == "csv":
        text = _csv_text(
            ["p", "M", "q0", "n", "x0", "N", "S", "val"],
            ([report.p, report.M, report.q0, report.n, report.x0, entry.N,
              str(entry.partial_sum), entry.valuation]
             for report in reports for entry in report.entries),
        )
    else:
        lines = []
        for report in reports:
            reached = report.reached_at()
            shown = reached if reached is not None else "--"
            mono = "yes" if report.monotone else "no"
            lines.append(f"{report.n} & {report.x0} & {shown} & {mono} \\\\")
        text = "\n".join(lines)

    code = _emit(text, args.out)
    if code != 0:
        return code
    return 0 if not failures else 1


# -- entry point ------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args)
    except ValueError as exc:  # the library refused an input
        return _usage_error(str(exc))
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"error: internal error: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
