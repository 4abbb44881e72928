"""Write perfbench/expected.json, the outputs the benchmark checks against.

    python3 perfbench/record_expected.py

Run it only at a commit whose outputs have been verified independently
(the acceptance suite passes, and the order-4 ``enumerate`` counts and
hashes match the published ones), and only when a workload's inputs
change: the file is the benchmark's correctness gate.

The sweep hashes are taken from the sample itself, serialized without
running any check, so a sweep that skips or repeats a structure fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from ordsgp import enumerate_semigroups, serialize_document, transcript_hash  # noqa: E402
from ordsgp.cli import main  # noqa: E402
from ordsgp.enumeration import sample_ordered_semigroups  # noqa: E402

from rep import POWER_PROPERTIES  # noqa: E402
from run import ACCEPTANCE_SEED, SAMPLE_SEEDS  # noqa: E402

SWEEP_SAMPLE = {3: 40, 4: 1000}


def enumerate_outputs(n: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["enumerate", "--order", str(n)])
    fields = dict(line.split(": ", 1) for line in out.getvalue().splitlines())
    return {
        "exit_code": 0,
        "semigroups": int(fields["semigroups"]),
        "ordered": int(fields["ordered-semigroups"]),
        "sequence_hash": fields["sequence-hash"],
        "sorted_hash": fields["sorted-hash"],
    }


def sweep_outputs(n: int) -> dict:
    count = SWEEP_SAMPLE[n]
    hashes = {}
    for seed in range(ACCEPTANCE_SEED, ACCEPTANCE_SEED + SAMPLE_SEEDS):
        docs = [serialize_document(s) for s in sample_ordered_semigroups(n, count, seed)]
        hashes[str(seed)] = transcript_hash(docs, sort=True)
    return {"count": count, "sorted_hash": hashes}


def power_outputs(n: int) -> dict:
    semigroups = sum(1 for _ in enumerate_semigroups(n))
    return {"semigroups": semigroups, "results": semigroups * len(POWER_PROPERTIES)}


def record() -> dict:
    """Expected outputs per workload and order (4, and 3 for ``--tiny``)."""
    return {
        "enumerate-n4": {str(n): enumerate_outputs(n) for n in (3, 4)},
        "power-n4": {str(n): power_outputs(n) for n in (3, 4)},
        "sweep-n4": {str(n): sweep_outputs(n) for n in (3, 4)},
    }


if __name__ == "__main__":
    (HERE / "expected.json").write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
