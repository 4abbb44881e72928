"""Smoke test for the benchmark: every workload at its tiny (order-3) size.

    python3 -m pytest perfbench/tests/smoke.py -q

It checks that each run emits every metric BENCHMARK.json names, with its
unit; that a wrong expected count or hash makes the run fail; that a run
without the program fails without printing a result; and that a
repetition which starts with warm enumeration caches is counted as failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 5


def run_bench(root: Path, workload: str, trace: int = 0) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def copy_checkout(dest: Path, with_sources: bool = True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    ignore = shutil.ignore_patterns("__pycache__", "results")
    shutil.copytree(BENCH, dest / "perfbench", ignore=ignore)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    return dest


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc, result = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


CORRUPTIONS = [
    ("enumerate-n4", "semigroups"),
    ("enumerate-n4", "ordered"),
    ("enumerate-n4", "sequence_hash"),
    ("enumerate-n4", "sorted_hash"),
    ("sweep-n4", "count"),
    ("sweep-n4", "sorted_hash"),
    ("power-n4", "semigroups"),
    ("power-n4", "results"),
]


@pytest.mark.parametrize("workload,key", CORRUPTIONS)
def test_a_wrong_expected_value_fails_the_run(tmp_path, workload, key):
    root = copy_checkout(tmp_path)
    expected_path = root / "perfbench" / "expected.json"
    expected = json.loads(expected_path.read_text())
    node = expected[workload]["3"]
    if isinstance(node[key], int):
        node[key] += 1
    elif isinstance(node[key], dict):
        node[key] = {seed: "0" * 64 for seed in node[key]}
    else:
        node[key] = "0" * 64
    expected_path.write_text(json.dumps(expected))
    proc, result = run_bench(root, workload)
    assert proc.returncode == 1, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert result["correct"] is False and result["failed"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_without_the_program_the_run_fails_and_prints_no_result(tmp_path, workload):
    root = copy_checkout(tmp_path, with_sources=False)
    proc, result = run_bench(root, workload)
    assert proc.returncode != 0
    assert result is None


def test_a_repetition_that_starts_with_warm_caches_fails():
    sys.path.insert(0, str(BENCH))
    import rep

    rep.import_ordsgp()
    from ordsgp import enumeration

    enumeration.all_semigroup_tables(2)
    enumeration.enumerate_compatible_orders(next(iter(enumeration.enumerate_semigroups(2))))
    assert sorted(rep.warm_caches()) == ["_TABLE_LISTS", "_compatible_orders_flat", "all_posets"]

    expected = json.loads((BENCH / "expected.json").read_text())["power-n4"]["3"]
    record = rep.run(
        {"workload": "power-n4", "order": 3, "trace": False, "setup_only": False,
         "slice_s": 0.0, "expected": expected}
    )
    assert record["failed"] == 1
    assert any("warm caches" in note for note in record["failures"])
