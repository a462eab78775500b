"""One repetition of a benchmark workload in a fresh interpreter.

Usage: python3 perfbench/child.py JOB_JSON

Run by ``run.py`` with ``PYTHONPATH=src``, never by hand.  A fresh
interpreter is the point: qeuler's CLI always uses the module-level
default ``EulerCache``, so a second repetition in one process would
find every q-Euler number already computed.

Timestamps use CLOCK_MONOTONIC, which is shared by all processes on
the machine, so the parent can subtract its own spawn time from
``t_import``.  The job is a JSON object with

* ``timing``: path of the JSON file this process writes its timestamps
  (and, when traced, the per-layer summary) to;
* ``argv`` (a CLI run, output written with ``--out``) or ``frobenius``
  (the library loop of workloads.frobenius_general), or neither for a
  set-up-only probe;
* ``out``: path of the workload's output;
* ``spans``: when present, trace the run and write its spans there.
"""

import sys
import time

import qeuler

T_IMPORT = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402  (imported after the set-up mark on purpose)


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _run_frobenius(spec: dict, out_path: str) -> float:
    from qeuler import EulerCache, PolyQ, RatFunc, frobenius_euler

    u = RatFunc(PolyQ(spec["u_num"]), PolyQ(spec["u_den"]))
    cache = EulerCache()
    values = [frobenius_euler(n, u, cache) for n in range(spec["n_max"] + 1)]
    t_done = _now()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"values": [v.to_json() for v in values]}, handle)
    return t_done


def main() -> int:
    job = json.loads(sys.argv[1])
    timing = {"t_import": T_IMPORT, "module": qeuler.__file__}
    tracer = None
    if "spans" in job:
        import tracing

        tracer = tracing.install()
    timing["t_start"] = _now()
    code = 0
    if "argv" in job:
        from qeuler import cli

        code = cli.main(job["argv"] + ["--out", job["out"]])
        timing["t_done"] = _now()
    elif "frobenius" in job:
        timing["t_done"] = _run_frobenius(job["frobenius"], job["out"])
    if tracer is not None:
        tracer.write_spans(job["spans"])
        timing["layers"] = tracer.summary()
    with open(job["timing"], "w", encoding="utf-8") as handle:
        json.dump(timing, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
