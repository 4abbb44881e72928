"""Benchmark for ordsgp: end-to-end throughput, and a traced per-layer run.

    python3 perfbench/run.py --workload sweep-n4 --seed 1 --seconds 30 --trace 0

Workloads (see README.md for why each exists and which layer moves what):

- ``sweep-n4``     a sample of order-4 ordered semigroups through ``sweep.sweep``
- ``enumerate-n4`` ``ordsgp enumerate --order 4``, via ``ordsgp.cli.main``
- ``power-n4``     the three power correspondences on every order-4 semigroup

Each repetition runs in a fresh interpreter (``rep.py``), so the
enumeration caches start cold.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs one plain and one traced repetition and prints
the per-layer metrics, with the tracing overhead.  Every output is checked
against ``expected.json``; the last stdout line is one JSON object, and the
exit code is 1 when any check failed, 2 when the program is missing.
``--tiny`` runs the order-3 variant of each workload, for the smoke test.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from rep import POWER_PROPERTIES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

ACCEPTANCE_SEED = 20260810
# expected.json records the sweep's sorted hash for this many sample seeds
SAMPLE_SEEDS = 64
# a run must end within 180 s
DEADLINE_S = 170.0
# setup_s is the median of at least this many fresh set-ups
MIN_SETUP_SAMPLES = 3
# repetitions of a --trace 0 run, each in its own interpreter
REPS = {"sweep-n4": 3, "enumerate-n4": 3, "power-n4": 1}

# ordsgp's BUNDLE_ORDER and THEOREM_ORDER, spelled out: the metric names are
# fixed by BENCHMARK.json, and this process never imports the program.
BUNDLES = (
    "CR-EQ5", "GL-CHAR", "GL-HREL", "INV-COMM", "CR-HCOMM", "CR-INV", "CR-HCLASS",
    "CL-EQ", "CL-HCOMM", "CL-CRESEF", "CL-CRINV", "LCL-EQ5", "LCL-EQ2",
)
THEOREMS = (
    "CR-LEASTCSC", "CR-CSDECOMP", "CR-HCLASS-GL", "CL-DECOMP", "LCL-LEASTCSC", "LCL-DECOMP",
)

END_TO_END = {
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p99": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# A name ending in _us or _s is the mean duration of the span named by the
# rest; any other name is a ratio counter summed over the traced repetition.
PER_LAYER = {
    "enumeration.table_dfs_s": "s",
    "enumeration.tables": "count",
    "enumeration.orders_us": "us",
    "enumeration.orders_yield": "ratio",
    "core.validate_us": "us",
    "fileformat.serialize_us": "us",
    "enumeration.transcript_hash_s": "s",
    "sweep.check_structure_us": "us",
    **{
        name: unit
        for b in BUNDLES
        for name, unit in ((f"classification.{b}_us", "us"), (f"classification.{b}.applicable", "ratio"))
    },
    **{f"congruence.{t}_us": "us" for t in THEOREMS},
    "congruence.csc_us": "us",
    "congruence.csc_yield": "ratio",
    "ideals.enumerate_ideals_us": "us",
    "ideals.ideal_yield": "ratio",
    "ideals.n_relation_us": "us",
    "ideals.green_relation_us": "us",
    "elements.is_regular_us": "us",
    "core.down_closure_us": "us",
    "power.construct_us": "us",
    **{f"power.{p}_us": "us" for p in POWER_PROPERTIES},
    "trace.overhead_items_per_s": "1/s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(REPS))
    parser.add_argument("--seed", type=int, default=ACCEPTANCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="order-3 inputs, for the smoke test")
    return parser.parse_args(argv)


def sample_seed(seed: int) -> int:
    """The recorded sample seed a benchmark seed maps to (identity on those)."""
    return ACCEPTANCE_SEED + (seed - ACCEPTANCE_SEED) % SAMPLE_SEEDS


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def git_sha():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class ProgramMissing(Exception):
    pass


class Runner:
    """Starts repetitions one at a time, each in a fresh interpreter."""

    def __init__(self, base_cfg: dict, deadline: float):
        self.base_cfg = base_cfg
        self.deadline = deadline
        self.records: list[dict] = []
        self.errors: list[str] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def rep(self, **overrides) -> dict | None:
        cfg = dict(self.base_cfg, **overrides)
        remaining = self.deadline - time.monotonic()
        if remaining <= 1:
            self.errors.append("out of time before a repetition could start")
            return None
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "rep.py"), json.dumps(cfg)],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            self.errors.append(f"repetition timed out after {remaining:.0f} s")
            return None
        if proc.returncode == 2:
            raise ProgramMissing(proc.stderr.strip())
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-3:]
            self.errors.append(f"repetition exited with {proc.returncode}: {' | '.join(tail)}")
            return None
        record = json.loads(lines[-1])
        record["trace"] = cfg["trace"]
        self.records.append(record)
        return record


def end_to_end_metrics(timed: list[dict], setups: list[float]) -> tuple[dict, dict]:
    items = sum(r["items"] for r in timed)
    wall = sum(r["wall_s"] for r in timed)
    # Every unit runs the same inputs in the same order.  An input's time is
    # its mean over the run's units: one slow unit moves it by 1/units, and
    # drift in machine speed weighs in as it does on items_per_s.
    units = [unit for r in timed for unit in r["intervals_ms"]]
    per_input = sorted(statistics.fmean(times) for times in zip(*units))
    values = {
        "items_per_s": items / wall,
        "item_ms_p50": nearest_rank(per_input, 0.50),
        "item_ms_p99": nearest_rank(per_input, 0.99),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
    }
    return values, {"inputs": len(per_input), "units_per_input": len(units)}


def per_layer_metrics(traced: dict, plain: dict) -> dict:
    spans, ratios = traced["spans"], traced["ratios"]
    values = {}
    for name, unit in PER_LAYER.items():
        if unit in ("us", "s"):
            calls, total_ns, _ = spans.get(name[: -len(unit) - 1], (0, 0, 0))
            values[name] = total_ns / calls / (1e3 if unit == "us" else 1e9) if calls else 0.0
        elif name == "trace.overhead_items_per_s":
            values[name] = plain["items"] / plain["wall_s"] - traced["items"] / traced["wall_s"]
        else:
            num, den = ratios.get(name, (0, 0))
            values[name] = num / den if den else 0.0
    return values


def stop(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills and reaps the child
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    signal.signal(signal.SIGTERM, stop)
    if not (SRC / "ordsgp" / "__init__.py").is_file():
        print(f"error: the ordsgp sources are missing ({SRC})", file=sys.stderr)
        return 2
    order = 3 if args.tiny else 4
    section = json.loads((HERE / "expected.json").read_text())[args.workload][str(order)]
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}{'-tiny' if args.tiny else ''}-seed{args.seed}-trace{args.trace}"
    base_cfg = {
        "workload": args.workload,
        "order": order,
        "trace": False,
        "setup_only": False,
        "slice_s": args.seconds,
    }
    if args.workload == "sweep-n4":
        seed = sample_seed(args.seed)
        base_cfg.update(
            count=section["count"],
            sample_seed=seed,
            expected={"sorted_hash": section["sorted_hash"][str(seed)]},
        )
    else:
        base_cfg["expected"] = section
    runner = Runner(base_cfg, started + DEADLINE_S)
    spans_path = RESULTS / f"{stem}.spans.jsonl.gz"

    try:
        if args.trace:
            plain = runner.rep(slice_s=args.seconds / 2)
            traced = runner.rep(slice_s=args.seconds / 2, trace=True, spans_path=str(spans_path))
        else:
            reps = REPS[args.workload]
            timed = [runner.rep(slice_s=args.seconds / reps) for _ in range(reps)]
            setups = [r["setup_s"] for r in runner.records]
            while len(setups) < MIN_SETUP_SAMPLES and not runner.errors:
                setup = runner.rep(setup_only=True)
                if setup:
                    setups.append(setup["setup_s"])
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    measured = [r for r in runner.records if "items" in r]
    attempted = sum(r["attempted"] for r in measured) + len(runner.errors)
    failed = sum(r["failed"] for r in measured) + len(runner.errors)
    failures = runner.errors + [note for r in measured for note in r["failures"]]
    if args.trace:
        ok = plain is not None and traced is not None
        values = per_layer_metrics(traced, plain) if ok else {}
        units, samples = PER_LAYER, None
    else:
        ok = all(timed)
        values, samples = end_to_end_metrics(timed, setups) if ok else ({}, None)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in values}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "sample_seed": base_cfg.get("sample_seed"),
        "order": order,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "percentiles": "nearest rank over inputs of each input's mean completion interval",
        "item_samples": samples,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "failures": failures,
        "metrics": metrics,
        "repetitions": [
            {k: v for k, v in r.items() if k not in ("intervals_ms", "spans", "ratios")}
            for r in runner.records
        ],
    }
    if args.trace and ok:
        record["spans"] = {
            name: {"calls": calls, "total_s": total / 1e9, "self_s": (total - child) / 1e9}
            for name, (calls, total, child) in traced["spans"].items()
        }
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    result_path = RESULTS / f"{stem}.json"
    result_path.write_text(json.dumps(record, indent=2) + "\n")

    for name, metric in metrics.items():
        print(f"{name}: {metric['value']} {metric['unit']}")
    if samples:
        print(f"item percentiles over {samples['inputs']} inputs, each the mean of {samples['units_per_input']} units")
    print(f"failed: {failed} of {attempted} attempted")
    for note in failures:
        print(f"FAILED: {note}")
    print(f"run record: {result_path.relative_to(ROOT)}")
    correct = ok and failed == 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
