"""Sweep machinery: run every registered check over enumerated structures.

A sweep evaluates each equivalence bundle (skipping those whose premise a
structure does not meet) and each structure theorem; any ``agree = False``
result is collected as a Disagreement carrying the serialized structure
and every condition with its counterexample detail, so a counterexample is
reproducible from the report alone.

Multi-worker sweeps split the positions of the ordered-semigroup stream
into contiguous ranges of equal size, one per worker; at most one worker
runs per CPU.  The workers' results are merged in range order, so the
merged transcripts are the serial sequence.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .classification import BUNDLE_ORDER, equivalence_bundle
from .congruence import THEOREM_ORDER, structure_theorem_check
from .core import OrderedSemigroup
from .enumeration import enumerate_ordered_semigroups, ordered_offsets
from .errors import NotApplicable
from .fileformat import serialize_document
from .report import ConditionResult

BUNDLE_IDS = BUNDLE_ORDER
THEOREM_IDS = THEOREM_ORDER


@dataclass(frozen=True)
class Disagreement:
    check_id: str
    document: str
    conditions: tuple[ConditionResult, ...]


def check_structure(
    s: OrderedSemigroup,
    bundle_ids=BUNDLE_IDS,
    theorem_ids=THEOREM_IDS,
) -> list[Disagreement]:
    """Every registered check on one structure; empty list means all agree."""
    found = []
    doc = None
    for bundle_id in bundle_ids:
        try:
            result = equivalence_bundle(s, bundle_id)
        except NotApplicable:
            continue
        if not result.agree:
            doc = doc or serialize_document(s)
            found.append(Disagreement(bundle_id, doc, result.conditions))
    for theorem_id in theorem_ids:
        result = structure_theorem_check(s, theorem_id)
        if not result.agree:
            doc = doc or serialize_document(s)
            found.append(Disagreement(theorem_id, doc, result.conditions))
    return found


@dataclass
class SweepReport:
    total: int
    disagreements: list[Disagreement]
    transcripts: list[str]


def sweep(
    structures,
    bundle_ids=BUNDLE_IDS,
    theorem_ids=THEOREM_IDS,
) -> SweepReport:
    total = 0
    disagreements: list[Disagreement] = []
    transcripts: list[str] = []
    for s in structures:
        total += 1
        transcripts.append(serialize_document(s))
        disagreements.extend(check_structure(s, bundle_ids, theorem_ids))
    return SweepReport(total, disagreements, transcripts)


def split_positions(n: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous position ranges covering the order-n stream, whose sizes
    differ by at most 1.

    With more workers than structures, equal bounds are merged, so there
    are fewer ranges than ``workers`` but none is empty.
    """
    total = ordered_offsets(n)[-1]
    bounds = sorted({w * total // workers for w in range(workers + 1)})
    return list(zip(bounds, bounds[1:]))


def _sweep_chunk(args) -> SweepReport:
    n, chunk, bundle_ids, theorem_ids = args
    return sweep(enumerate_ordered_semigroups(n, positions=chunk), bundle_ids, theorem_ids)


def parallel_sweep(
    n: int,
    workers: int,
    bundle_ids=BUNDLE_IDS,
    theorem_ids=THEOREM_IDS,
) -> SweepReport:
    """Sweep the full order-n enumeration across worker processes.

    At most ``os.cpu_count()`` processes start.  The chunks are contiguous
    position ranges and ``pool.map`` returns them in order, so the merged
    report lists structures and disagreements in the serial order.
    """
    # the split builds the table list and every table's compatible orders
    # before the pool starts, so forked workers inherit both caches
    chunks = split_positions(n, min(workers, os.cpu_count() or 1))
    args = [(n, chunk, tuple(bundle_ids), tuple(theorem_ids)) for chunk in chunks]
    merged = SweepReport(0, [], [])
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        for report in pool.map(_sweep_chunk, args):
            merged.total += report.total
            merged.disagreements.extend(report.disagreements)
            merged.transcripts.extend(report.transcripts)
    return merged
