"""Smoke test of the benchmark command at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench``.  It
checks the printed metric names, units and operation counts, that every
output check accepts real output and rejects a corrupted copy, and
that the command refuses a directory without the package.  There is
no timing gate.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

RUNS = ROOT / ".perfbench_runs"


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.fixture(scope="module")
def tiny_all() -> subprocess.CompletedProcess:
    return _bench("--workload", "all", "--tiny", "--seed", "5",
                  "--seconds", "0", "--trace", "0")


def test_end_to_end_metrics_and_counts(tiny_all):
    result = _result(tiny_all)
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (len(TINY), 0)
    expected = {f"{w}.{m}": unit
                for w in TINY for m, unit in run.END_TO_END.items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in TINY:
        assert f"{name}: 1 attempted, 0 failed" in tiny_all.stdout


def test_per_layer_metrics():
    proc = _bench("--workload", "table_deep", "--tiny", "--seed", "2",
                  "--seconds", "0", "--trace", "1")
    result = _result(proc)
    assert (result["attempted"], result["failed"]) == (2, 0)
    in_result = {k: u for k, u in run.PER_LAYER.items()
                 if k not in run.PRINTED_ONLY}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == in_result
    assert all(f"table_deep {name} = " in proc.stdout for name in run.PER_LAYER)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["euler.number.calls"] == 5  # n = 0 .. 4
    assert values["euler.max_index"] == 4
    assert values["exactalg.poly_gcd.calls"] > 0
    assert values["cli.output_bytes"] > 0
    assert values["identities.verify_identity.calls"] == 0
    assert "identities.run_suite.total_s" not in values
    header = (RUNS / "table_deep.spans.tsv").read_text().splitlines()[0]
    assert header.split("\t") == ["span", "name", "parent", "start_s", "end_s"]


def test_benchmark_json_matches_the_command():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert names == [name for name in WORKLOADS if name in names]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: u for k, u in run.PER_LAYER.items() if k not in run.PRINTED_ONLY}


def test_documented_grid_counts():
    assert checks.expected_verify_counts({}) == (1228, 80)
    # verify --all --n-max 4 --s-max 2, the grid of the verify_all workload
    assert WORKLOADS["verify_all"].spec["caps"] == {"n": 4, "s": 2}
    assert checks.expected_verify_counts({"n": 4, "s": 2}) == (505, 54)


def test_times_are_scaled_to_the_reference_speed():
    rep = run.Repetition(exit_code=0, setup_s=0.1, run_s=2.0, rss_mb=1.0,
                         output_bytes=0, layers=None, problem=None,
                         traced=False)
    slow = 2 * run.speed.REFERENCE_S  # the probe ran at half the speed
    rep.scale(slow, slow)
    assert (rep.wall_setup_s, rep.wall_run_s) == (0.1, 2.0)
    shrink = 0.5 ** run.speed.EXPONENT
    assert (rep.setup_s, rep.run_s) == pytest.approx((0.1 * shrink, 2 * shrink))
    assert run.speed.probe() > 0


def _bump(obj: dict) -> None:
    """Add one to a decimal-string integer field in place."""
    obj["num"] = str(int(obj["num"]) + 1)


def _corrupt_cases(out: dict) -> None:
    out["cases"] += 1


def _corrupt_failed(out: dict) -> None:
    out["failed"] = 1


def _corrupt_table(out: dict) -> None:
    _bump(out["rows"][3]["e_nq"]["num"][1])


def _corrupt_table_frobenius(out: dict) -> None:
    _bump(out["rows"][2]["frobenius"]["num"][0])


def _corrupt_classical(out: dict) -> None:
    _bump(out["rows"][4]["e_at_q1"])


def _corrupt_target(out: dict) -> None:
    report = out["reports"][4]
    report["target"] = str(int(report["target"]) + 1)


def _corrupt_partial_sum(out: dict) -> None:
    row = out["reports"][5]["rows"][-1]  # val >= M there, so S + 1 drops it
    row["S"] = str(int(row["S"]) + 1)


def _corrupt_frobenius(out: dict) -> None:
    _bump(out["values"][3]["num"][0])


CORRUPTIONS = [
    ("verify_all", _corrupt_cases),
    ("verify_all", _corrupt_failed),
    ("table_deep", _corrupt_table),
    ("table_deep", _corrupt_table_frobenius),
    ("table_deep", _corrupt_classical),
    ("padic_sweep", _corrupt_target),
    ("padic_sweep", _corrupt_partial_sum),
    ("frobenius_general", _corrupt_frobenius),
]


@pytest.mark.parametrize("name", list(TINY))
def test_check_accepts_real_output(tiny_all, name):
    workload = TINY[name]
    text = (RUNS / f"{name}.out").read_text()
    for seed in range(3):
        workload.check(text, 0, workload.spec, random.Random(seed))


@pytest.mark.parametrize("name, corrupt", CORRUPTIONS,
                         ids=[c.__name__ for _, c in CORRUPTIONS])
def test_check_rejects_corrupted_output(tiny_all, name, corrupt):
    workload = TINY[name]
    out = json.loads((RUNS / f"{name}.out").read_text())
    corrupt(out)
    with pytest.raises(checks.CheckError):
        workload.check(json.dumps(out), 0, workload.spec, random.Random(0))


@pytest.mark.parametrize("name", list(TINY))
def test_check_rejects_nonzero_exit(tiny_all, name):
    workload = TINY[name]
    text = (RUNS / f"{name}.out").read_text()
    with pytest.raises(checks.CheckError):
        workload.check(text, 1, workload.spec, random.Random(0))


def test_refuses_a_directory_without_the_package():
    bare = RUNS / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "table_deep", "--seed", "1", "--seconds",
                  "1", "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
