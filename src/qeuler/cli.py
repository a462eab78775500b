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
    N falls below the floor min(N, M), or when M is not reached by
    depth M (``qeuler.padic`` proves the floor, so the JSON ``slack`` is
    0); a valuation that dips while staying above the floor is reported
    (the LaTeX ``mono`` column) but does not fail.

Each command reads its flags from one table, left to right:
``--flag value`` or ``--flag=value``, where a unique prefix stands for
the flag and an exact name wins (``--pr`` is ``--precision``, ``--p``
is ``--p``).  The token after a value flag is its value, even ``-8``.
Repeated ``--id`` and ``--x0`` keep every value in order, any other
flag its last.  ``-h`` or ``--help`` prints help made from the table.

Exit codes: 0 success, 1 an identity or convergence check failed,
2 usage error, 3 output could not be written (to the ``--out`` file or
to stdout), 4 internal error.  Exit 2 covers any flag the parser
refuses (with argparse's wording) and any input the library refuses
with a ValueError; any other exception is a fault of the program and
exits 4.  Either way ``main`` prints one stderr line, ``error: ...``,
and no traceback.  Only checks the library does not make live here.

JSON output is the text ``json.dumps(value, indent=2)`` gives, written
by ``_json``: with ``indent`` set, the stdlib runs its pure-Python
encoder, which is slower for the same bytes.
"""

from __future__ import annotations

import io
import os
import sys
from json.encoder import encode_basestring_ascii as _encode_str
from types import SimpleNamespace

from .euler import _table_values, table_rows
from .exactalg import _fraction_latex
from .identities import REGISTRY, default_ranges, run_suite
from .padic import CALIBRATED_SLACK, _convergence_reports

FORMATS = ("json", "csv", "latex")


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


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` for the str, int, bool, None, list,
    tuple and str-keyed dict values the records' ``to_json`` build.

    Anything else, a float or a non-str key included, raises TypeError.
    """
    if isinstance(value, str):
        return _encode_str(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):  # _encode_str refuses a key that is not a str
        items = [_encode_str(key) + ": " + _json(item, inner)
                 for key, item in value.items()]
        opening, closing = "{", "}"
    elif isinstance(value, (list, tuple)):
        items = [_json(item, inner) for item in value]
        opening, closing = "[", "]"
    else:
        raise TypeError(f"Object of type {type(value).__name__}"
                        " is not JSON serializable")
    if not items:
        return opening + closing
    return opening + inner + ("," + inner).join(items) + indent + closing


def _csv_text(header: list[str], rows) -> str:
    import csv  # here, so that runs in the other formats never load it

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


# -- table ------------------------------------------------------------


def cmd_table(args: SimpleNamespace) -> int:
    n_max = args.n_max
    if args.format == "json":
        text = _json({"rows": table_rows(n_max)})
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


def cmd_verify(args: SimpleNamespace) -> int:
    if args.ids and args.all:
        return _usage_error("--id and --all are mutually exclusive")
    ids = None
    if args.ids:
        ids = []
        for token in args.ids:
            # a token that names no tag goes on for default_ranges to refuse
            matches = _unique_prefix(token, REGISTRY) or [token]
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
        text = _json(report.to_json())
    elif args.format == "csv":
        text = _csv_text(
            ["id", "params", "status"],
            ([tag, " ".join(str(p) for p in params), status]
             for tag, params, status in report.case_log),
        )
    else:
        tally = {tag: {"pass": 0, "fail": 0} for tag in ranges}
        for tag, _, status in report.case_log:
            if tag in tally:
                tally[tag][status] += 1
        text = "\n".join(
            f"\\texttt{{{_latex_escape(tag)}}} & {counts['pass'] + counts['fail']}"
            f" & {counts['pass']} & {counts['fail']} \\\\"
            for tag, counts in tally.items())

    code = _emit(text, args.out)
    if code != 0:
        return code
    return 0 if report.failed == 0 else 1


def _latex_escape(text: str) -> str:
    return text.replace("_", "\\_")


# -- padic ------------------------------------------------------------


def cmd_padic(args: SimpleNamespace) -> int:
    p = args.p
    precision = args.precision
    depth = args.depth
    q0 = args.q0 if args.q0 is not None else 1 + p
    if depth < precision:  # the floor min(N, M) reaches M by depth M: no slack
        return _usage_error(
            f"--depth {depth} is too small to decide convergence to"
            f" precision {precision}; need at least {precision}")
    x0s = args.x0s or (0, 1, 2)

    # one recursion serves every (n, x0); reports come in (n, x0) order
    reports = _convergence_reports(range(args.n_max + 1), x0s, p, q0,
                                   precision, depth)
    failures = []
    for report in reports:
        n, x0 = report.n, report.x0
        for entry in report.entries:
            floor = min(entry.N, precision)
            if entry.valuation < floor:
                failures.append(
                    f"n={n} x0={x0}: valuation {entry.valuation} at"
                    f" depth {entry.N} is below the floor {floor}")
        reached = report.reached_at()
        if reached is None or reached > precision:
            failures.append(
                f"n={n} x0={x0}: valuation did not reach {precision}"
                f" by depth {precision}")

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
        text = _json(payload)
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


# -- command line -----------------------------------------------------

# A flag table row: (flag, dest, kind, default, metavar, help).  The kind
# is bool (a switch), str (any text), a tuple (one of its strings), int
# (any integer) or an int L (an integer >= L); [kind] makes the flag
# repeatable, its values kept in order.
_HELP = ("-h, --help", None, bool, None, None, "show this help message and exit")
_OUTPUT_FLAGS = (
    ("--format", "format", FORMATS, "json", "{" + ",".join(FORMATS) + "}",
     "output format (default json)"),
    ("--out", "out", str, None, "PATH", "write output to PATH instead of stdout"),
)

#: command -> (handler, summary, flag table)
_COMMANDS = {
    "table": (cmd_table, "print q-Euler numbers", (
        ("--n-max", "n_max", 0, 10, "N_MAX", "largest index n (default 10)"),
        *_OUTPUT_FLAGS,
    )),
    "verify": (cmd_verify, "verify identities over grids", (
        ("--all", "all", bool, False, None,
         "select every identity in the registry"),
        ("--id", "ids", [str], None, "TAG",
         "identity id (unique prefix accepted, repeatable)"),
        ("--n-max", "n_max", 0, None, "N_MAX", ""),
        ("--m-max", "m_max", 0, None, "M_MAX", ""),
        ("--k-max", "k_max", 0, None, "K_MAX", ""),
        ("--s-max", "s_max", 1, None, "S_MAX", ""),
        *_OUTPUT_FLAGS,
    )),
    "padic": (cmd_padic, "p-adic convergence checks", (
        ("--p", "p", 1, 3, "P", "odd prime (default 3)"),
        ("--precision", "precision", 1, 3, "M", "work modulo p**M (default 3)"),
        ("--depth", "depth", 1, 6, "N", "largest truncation exponent (default 6)"),
        ("--q0", "q0", int, None, "Q0", "integer base, q0 = 1 (mod p) (default 1+p)"),
        ("--n-max", "n_max", 0, 4, "N_MAX", "largest polynomial degree (default 4)"),
        ("--x0", "x0s", [0], None, "X0", "evaluation point (repeatable, default 0 1 2)"),
        *_OUTPUT_FLAGS,
    )),
}


def _unique_prefix(token: str, names) -> list[str]:
    """The names ``token`` stands for: itself, else every name it begins."""
    return [token] if token in names else [n for n in names if n.startswith(token)]


def _value(flag: str, kind, text: str):
    """The value ``text`` gives ``flag``; ValueError if it is not of ``kind``."""
    if kind is str or (isinstance(kind, tuple) and text in kind):
        return text
    if isinstance(kind, tuple):
        raise ValueError(f"argument {flag}: invalid choice: {text!r}"
                         f" (choose from {', '.join(map(repr, kind))})")
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"argument {flag}: not an integer: {text!r}") from None
    if kind is not int and value < kind:
        raise ValueError(f"argument {flag}: must be >= {kind}: {text}")
    return value


def _parse(argv: list[str]) -> tuple[str | None, SimpleNamespace | None]:
    """The command ``argv`` names and its flag values, or None for them
    when it asks for help.  A usage error raises ValueError."""
    command, rows, values, lists, extras = None, {}, {}, {}, []
    tokens = iter(argv)
    for token in tokens:
        key, eq, text = ("--help", "", "") if token == "-h" else token.partition("=")
        is_flag = key.startswith("--") and len(key) > 2
        found = _unique_prefix(key, ["--help", *rows]) if is_flag else []
        if len(found) == 1:
            flag, dest, kind = rows.get(found[0], _HELP)[:3]
            if kind is bool and eq:
                raise ValueError(f"argument {flag}: ignored explicit argument"
                                 f" {text!r}")
            if kind is bool:
                if dest is None:  # -h or --help
                    return command, None
                values[dest] = True
                continue
            if not eq:  # the next token is the value, even if it begins with -
                text = next(tokens, None)
                if text is None:
                    raise ValueError(f"argument {flag}: expected one argument")
            if isinstance(kind, list):
                lists.setdefault(dest, []).append(_value(flag, kind[0], text))
            else:
                values[dest] = _value(flag, kind, text)
        elif command is None and not token.startswith("-"):
            command = _value("command", tuple(_COMMANDS), token)
            rows = {row[0]: row for row in _COMMANDS[command][2]}
            values = {row[1]: row[3] for row in rows.values()}
        else:
            extras.append(token)
    if command is None:
        raise ValueError("the following arguments are required: command")
    if extras:
        raise ValueError(f"unrecognized arguments: {' '.join(extras)}")
    return command, SimpleNamespace(**{**values, **lists})


def _help(command: str | None) -> str:
    """What ``-h`` prints for qeuler or for one command, from the tables."""
    if command is None:
        usage = f"[-h] {{{','.join(_COMMANDS)}}} ..."
        about = "Exact q-Euler numbers, identity verification, p-adic checks."
        rows = [(name, entry[1]) for name, entry in _COMMANDS.items()]
        flags = ()
    else:
        usage, (_, about, flags) = f"{command} [options]", _COMMANDS[command]
        rows = []
    rows += [(f"{row[0]} {row[4] or ''}".rstrip(), row[5]) for row in (_HELP, *flags)]
    width = 2 + max(len(label) for label, _ in rows)
    return "\n".join([f"usage: qeuler {usage}", "", about, "",
                      *(f"  {label:<{width}}{text}".rstrip() for label, text in rows),
                      ""])


def main(argv: list[str] | None = None) -> int:
    try:
        command, args = _parse(sys.argv[1:] if argv is None else argv)
        if args is None:
            return _emit(_help(command), None)
        return _COMMANDS[command][0](args)
    except ValueError as exc:  # a usage error, or the library refused an input
        return _usage_error(str(exc))
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"error: internal error: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
