"""End-to-end and per-layer benchmark for qeuler.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of verify_all, table_deep, padic_sweep, frobenius_general,
or ``all`` for the four in turn.  The package is imported from ``src/``
of the current directory; nothing needs to be installed.

Load is closed-loop with one client: repetitions run one after another,
each in a fresh interpreter (see child.py); another one starts while it
is expected, from the longest so far, to end within S seconds of the
first.  At least one always runs.  Every repetition's output goes through the
independent check of its workload, whose sample points are drawn from
``--seed``.  A repetition is one operation; it fails when its exit
status is nonzero or its check rejects the output.

With ``--trace 0`` the end-to-end metrics are reported:

    setup_s      median time from spawning an interpreter until
                 ``import qeuler`` has returned, over the set-up probes
                 run before the loop and the set-up of every repetition
    run_s        median time from there until the output is complete
    items_per_s  the workload's work units divided by run_s
    peak_rss_mb  median over repetitions of the process's maximum RSS

The two times are scaled to a reference speed of the machine by the
speed probes run between repetitions (see speed.py); the times as
measured are printed too and kept in the raw result file.

With ``--trace 1`` each loop step runs one untraced and one traced
repetition, and the per-layer metrics of the traced ones are reported
(see tracing.py), with ``trace.overhead_s``, the traced run_s minus
the untraced one.  The metrics in PRINTED_ONLY are printed but not put
in the result line.

Every metric is printed on its own line with its unit; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Raw samples, workload outputs and span
files are written under ``.perfbench_runs/``.  Exit status 0 after a
result, 2 when the checkout holds no ``src/qeuler`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import speed
from workloads import TINY, WORKLOADS

ROOT = Path.cwd()
RUNS = ROOT / ".perfbench_runs"
CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_PROBES = 15
# Budget of one workload's measurement; a repetition still running when it
# is spent is killed and counted as failed, so a run ends within 180 s.
BUDGET_S = 170.0
POLL_S = 0.005

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "exactalg.ratfunc_add.calls": "count",
    "exactalg.ratfunc_add.total_s": "s",
    "exactalg.ratfunc_add.self_s": "s",
    "exactalg.ratfunc_mul.calls": "count",
    "exactalg.ratfunc_mul.self_s": "s",
    "exactalg.ratfunc_canon.calls": "count",
    "exactalg.ratfunc_canon.self_s": "s",
    "exactalg.poly_gcd.calls": "count",
    "exactalg.poly_gcd.self_s": "s",
    "exactalg.poly_gcd.nontrivial_ratio": "ratio",
    "exactalg.polyq_mul.calls": "count",
    "exactalg.polyq_mul.self_s": "s",
    "exactalg.polyq_divmod.calls": "count",
    "exactalg.polyq_divmod.self_s": "s",
    "exactalg.xpoly_mul.calls": "count",
    "exactalg.xpoly_mul.self_s": "s",
    "exactalg.max_coeff_bits": "bits",
    "euler.number.calls": "count",
    "euler.number.total_s": "s",
    "euler.number.self_s": "s",
    "euler.number.hit_ratio": "ratio",
    "euler.number_inverse.calls": "count",
    "euler.number_inverse.self_s": "s",
    "euler.frobenius.calls": "count",
    "euler.frobenius.total_s": "s",
    "euler.frobenius.self_s": "s",
    "euler.max_index": "index",
    "identities.run_suite.total_s": "s",
    "identities.verify_identity.calls": "count",
    "identities.verify_identity.self_s": "s",
    "identities.moment_reduce.calls": "count",
    "identities.moment_reduce.total_s": "s",
    "identities.moment_reduce.self_s": "s",
    "bernstein.basis.calls": "count",
    "bernstein.basis.self_s": "s",
    "padic.witt_convergence_check.calls": "count",
    "padic.witt_convergence_check.self_s": "s",
    "padic.padic_from_rational.calls": "count",
    "padic.terms": "count",
    "padic.terms_per_s": "1/s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}

# Per-layer times of code that a workload of BENCHMARK.json never runs
# (padic on verify_all; identities, bernstein, XPoly products, E_n(1/q)
# and H_n on padic_sweep).  There they read 0 on every run, which says
# nothing, so they are printed with the others but kept out of the
# result line and of BENCHMARK.json.
PRINTED_ONLY = {
    "exactalg.xpoly_mul.self_s",
    "euler.number_inverse.self_s",
    "euler.frobenius.total_s",
    "euler.frobenius.self_s",
    "identities.run_suite.total_s",
    "identities.verify_identity.self_s",
    "identities.moment_reduce.total_s",
    "identities.moment_reduce.self_s",
    "bernstein.basis.self_s",
    "padic.witt_convergence_check.self_s",
    "padic.terms_per_s",
}


def now() -> float:
    # CLOCK_MONOTONIC is system-wide, so child.py's timestamps compare
    # with the parent's.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Unmeasurable(Exception):
    """The checkout cannot be measured at all (no result is printed)."""


@dataclass
class Repetition:
    exit_code: int
    setup_s: float
    run_s: float
    rss_mb: float
    output_bytes: int
    layers: dict | None
    problem: str | None
    traced: bool
    # setup_s and run_s as the clock read them, before scale().
    wall_setup_s: float = 0.0
    wall_run_s: float = 0.0
    probe_s: float = 0.0

    def scale(self, probe_before: float, probe_after: float) -> None:
        """Scale the times to the reference speed of speed.py."""
        self.probe_s = (probe_before + probe_after) / 2
        factor = speed.factor(self.probe_s)
        self.wall_setup_s, self.wall_run_s = self.setup_s, self.run_s
        self.setup_s *= factor
        self.run_s *= factor


def spawn(job: dict, tag: str, deadline: float) -> tuple[int, dict | None, float, float]:
    """Run child.py on ``job``; return (exit code, timing, spawn time, RSS MB).

    The child is killed at ``deadline`` and reported with exit code -9.
    """
    timing_path = RUNS / f"{tag}.timing.json"
    timing_path.unlink(missing_ok=True)
    job = {**job, "timing": str(timing_path)}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with open(RUNS / f"{tag}.stderr", "wb") as stderr:
        t_spawn = now()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), json.dumps(job)],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=stderr)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if now() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(POLL_S)
        proc.returncode = os.waitstatus_to_exitcode(status)
    timing = None
    if timing_path.is_file():
        timing = json.loads(timing_path.read_text(encoding="utf-8"))
    return proc.returncode, timing, t_spawn, usage.ru_maxrss / 1024


def setup_probe(deadline: float) -> float:
    code, timing, t_spawn, _ = spawn({}, "setup", deadline)
    if code != 0 or timing is None:
        detail = (RUNS / "setup.stderr").read_text(errors="replace").strip()
        raise Unmeasurable(f"importing qeuler failed (exit {code}): {detail}")
    expected = ROOT / "src" / "qeuler"
    if Path(timing["module"]).resolve().parent != expected.resolve():
        raise Unmeasurable(f"qeuler was imported from {timing['module']},"
                           f" not from {expected}")
    return timing["t_import"] - t_spawn


def repetition(workload, traced: bool, rng: random.Random,
               deadline: float) -> Repetition:
    tag = f"{workload.name}{'.traced' if traced else ''}"
    out_path = RUNS / f"{tag}.out"
    out_path.unlink(missing_ok=True)
    job = {**workload.job, "out": str(out_path)}
    if traced:
        job["spans"] = str(RUNS / f"{workload.name}.spans.tsv")
    code, timing, t_spawn, rss_mb = spawn(job, tag, deadline)
    problem = None
    text = out_path.read_text(encoding="utf-8") if out_path.is_file() else None
    if timing is None or text is None:
        problem = f"exit status {code}, no timing or output"
        timing = {"t_import": t_spawn, "t_start": t_spawn, "t_done": now()}
    else:
        try:
            workload.check(text, code, workload.spec, rng)
        except Exception as exc:  # any malformed output counts as a failure
            problem = f"{type(exc).__name__}: {exc}"
    return Repetition(
        exit_code=code,
        setup_s=timing["t_import"] - t_spawn,
        run_s=timing["t_done"] - timing["t_start"],
        rss_mb=rss_mb,
        # Only a CLI workload's output is the program's; the library
        # workload's file is the benchmark's own serialisation.
        output_bytes=len(text.encode()) if text and "argv" in job else 0,
        layers=timing.get("layers"),
        problem=problem,
        traced=traced,
    )


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    deadline = now() + BUDGET_S
    rng = random.Random(seed)
    setup_probe(deadline)  # compiles bytecode and checks where qeuler is from
    speed.probe()  # warms the probe's own code
    before = speed.probe()
    wall_setups = [setup_probe(deadline) for _ in range(SETUP_PROBES)]
    after = speed.probe()
    setups = [s * speed.factor((before + after) / 2) for s in wall_setups]
    plain: list[Repetition] = []
    traced: list[Repetition] = []
    start = now()
    longest = 0.0
    while True:
        step = now()
        for reps, traced_rep in [(plain, False)] + [(traced, True)] * trace:
            before = after
            reps.append(repetition(workload, traced_rep, rng, deadline))
            after = speed.probe()
            reps[-1].scale(before, after)
        longest = max(longest, now() - step)
        # Start another step only if it should end within the run length,
        # so a run takes about ``seconds`` whatever one repetition costs.
        if now() - start + longest > seconds or now() >= deadline:
            break
    reps = plain + traced
    for i, rep in enumerate(reps):
        if rep.problem:
            print(f"{workload.name}: repetition {i} failed: {rep.problem}",
                  file=sys.stderr)
    run_s = statistics.median(r.run_s for r in plain)
    if trace:
        metrics = layer_metrics(traced, run_s)
    else:
        metrics = {
            "setup_s": statistics.median([*setups, *(r.setup_s for r in reps)]),
            "run_s": run_s,
            "items_per_s": workload.items / run_s,
            "peak_rss_mb": statistics.median(r.rss_mb for r in plain),
        }
    failed = sum(1 for r in reps if r.problem)
    result = {
        "workload": workload.name,
        "seed": seed,
        "items": workload.items,
        "item_unit": workload.item_unit,
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
        "setup_probes_s": setups,
        "setup_probes_wall_s": wall_setups,
        "wall_run_s": statistics.median(r.wall_run_s for r in plain),
        "probe_s": statistics.median(r.probe_s for r in plain),
        "repetitions": [vars(r) for r in reps],
    }
    raw = RUNS / f"result-{workload.name}-seed{seed}-trace{int(trace)}.json"
    raw.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def layer_metrics(traced: list[Repetition], untraced_run_s: float) -> dict:
    summaries = [r.layers for r in traced if r.layers]
    metrics = {}
    for name in PER_LAYER:
        if name == "cli.output_bytes":
            metrics[name] = statistics.median(r.output_bytes for r in traced)
        elif name == "trace.overhead_s":
            traced_run_s = statistics.median(r.run_s for r in traced)
            metrics[name] = traced_run_s - untraced_run_s
        else:
            values = [s.get(name, 0) for s in summaries]
            metrics[name] = statistics.median(values) if values else 0
    return metrics


def report(result: dict, units: dict) -> None:
    name = result["workload"]
    print(f"{name}: {result['attempted']} attempted, {result['failed']} failed,"
          f" {result['items']} {result['item_unit']} per repetition")
    print(f"  {name} run_s as measured = {result['wall_run_s']:.6g} s,"
          f" speed probe = {result['probe_s']:.6g} s"
          f" (reference {speed.REFERENCE_S} s)")
    for metric, value in result["metrics"].items():
        print(f"  {name} {metric} = {value:.6g} {units[metric]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=56.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes instead of the benchmark's")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qeuler" / "__init__.py").is_file():
        print(f"error: no src/qeuler under {ROOT}; run from a qeuler checkout",
              file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)
    table = TINY if args.tiny else WORKLOADS
    names = list(table) if args.workload == "all" else [args.workload]
    units = PER_LAYER if args.trace else END_TO_END
    try:
        results = [measure(table[name], args.seed, args.seconds,
                           bool(args.trace)) for name in names]
    except Unmeasurable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics = {}
    for result in results:
        report(result, units)
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        for name, value in result["metrics"].items():
            if name not in PRINTED_ONLY:
                metrics[prefix + name] = {"value": value, "unit": units[name]}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
