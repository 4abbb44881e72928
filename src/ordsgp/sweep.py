"""Sweep machinery: run every registered check over enumerated structures.

A sweep evaluates each equivalence bundle (skipping those whose premise a
structure does not meet) and each structure theorem; any ``agree = False``
result is collected as a Disagreement carrying the serialized structure
and every condition with its counterexample detail, so a counterexample is
reproducible from the report alone.

Multi-worker sweeps split the cached table list into contiguous
first-row ranges, one per worker, balanced by the number of ordered
semigroups each range holds; at most one worker runs per CPU.  The
workers' results are merged in range order, so the merged transcripts are
the serial sequence.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import accumulate

from .classification import BUNDLE_ORDER, equivalence_bundle
from .congruence import THEOREM_ORDER, structure_theorem_check
from .core import OrderedSemigroup
from .enumeration import enumerate_ordered_semigroups, ordered_counts_by_first_row
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


def split_first_rows(n: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous first-row index ranges covering the whole search space,
    balanced by work.

    The w-th cut is the first-row index at which the count of ordered
    semigroups before it comes nearest to w/workers of the total.  Cuts
    that fall together are merged, so there may be fewer ranges than
    ``workers`` but none is empty.
    """
    counts = ordered_counts_by_first_row(n)
    starts = [row for row, _ in counts]
    before = list(accumulate((count for _, count in counts), initial=0))
    total = before.pop()
    bounds = [0]
    for w in range(1, workers):
        target = w * total / workers
        i = bisect_left(before, target)
        if i == len(before) or (i > 0 and target - before[i - 1] <= before[i] - target):
            i -= 1
        if starts[i] > bounds[-1]:
            bounds.append(starts[i])
    bounds.append(n**n)
    return list(zip(bounds, bounds[1:]))


def _sweep_chunk(args) -> SweepReport:
    n, chunk, bundle_ids, theorem_ids = args
    return sweep(enumerate_ordered_semigroups(n, first_row_range=chunk), bundle_ids, theorem_ids)


def parallel_sweep(
    n: int,
    workers: int,
    bundle_ids=BUNDLE_IDS,
    theorem_ids=THEOREM_IDS,
) -> SweepReport:
    """Sweep the full order-n enumeration across worker processes.

    At most ``os.cpu_count()`` processes start.  The chunks are contiguous
    first-row ranges and ``pool.map`` returns them in order, so the merged
    report lists structures and disagreements in the serial order.
    """
    # the split builds the table list and every table's compatible orders
    # before the pool starts, so forked workers inherit both caches
    chunks = split_first_rows(n, min(workers, os.cpu_count() or 1))
    args = [(n, chunk, tuple(bundle_ids), tuple(theorem_ids)) for chunk in chunks]
    merged = SweepReport(0, [], [])
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        for report in pool.map(_sweep_chunk, args):
            merged.total += report.total
            merged.disagreements.extend(report.disagreements)
            merged.transcripts.extend(report.transcripts)
    return merged
