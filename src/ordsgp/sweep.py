"""Sweep machinery: run every registered check over enumerated structures.

``CHECKS`` maps each check id to its evaluator: the equivalence bundles
first, then the structure theorems.  A sweep evaluates the checks it is
given in that order, skipping a bundle whose premise a structure does not
meet; any ``agree = False`` result is collected as a Disagreement carrying
the serialized structure and every condition with its counterexample
detail, so a counterexample is reproducible from the report alone.

``sweep_order`` sweeps the ordered-semigroup stream of one order from a
start position to its end.  It splits that range into contiguous ranges
of equal size, one per worker and at most one per CPU.  A single range
runs in the calling process; several run in a process pool, and their
results are merged in range order, so the merged transcripts are the
serial sequence.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .classification import BUNDLE_ORDER, equivalence_bundle
from .congruence import THEOREM_ORDER, structure_theorem_check
from .core import OrderedSemigroup
from .enumeration import enumerate_ordered_semigroups, ordered_offsets
from .errors import NotApplicable
from .fileformat import serialize_document
from .report import ConditionResult

CHECKS = {
    **{b: (lambda s, b=b: equivalence_bundle(s, b)) for b in BUNDLE_ORDER},
    **{t: (lambda s, t=t: structure_theorem_check(s, t)) for t in THEOREM_ORDER},
}
CHECK_IDS = tuple(CHECKS)


@dataclass(frozen=True)
class Disagreement:
    check_id: str
    document: str
    conditions: tuple[ConditionResult, ...]


def check_structure(s: OrderedSemigroup, check_ids=CHECK_IDS) -> list[Disagreement]:
    """The given checks on one structure; empty list means all agree."""
    found = []
    doc = None
    for check_id in check_ids:
        try:
            result = CHECKS[check_id](s)
        except NotApplicable:
            continue
        if not result.agree:
            doc = doc or serialize_document(s)
            found.append(Disagreement(check_id, doc, result.conditions))
    return found


@dataclass
class SweepReport:
    total: int
    disagreements: list[Disagreement]
    transcripts: list[str]


def sweep(structures, check_ids=CHECK_IDS) -> SweepReport:
    total = 0
    disagreements: list[Disagreement] = []
    transcripts: list[str] = []
    for s in structures:
        total += 1
        transcripts.append(serialize_document(s))
        disagreements.extend(check_structure(s, check_ids))
    return SweepReport(total, disagreements, transcripts)


def split_positions(n: int, workers: int, start: int = 0) -> list[tuple[int, int]]:
    """Contiguous position ranges covering start .. the end of the order-n
    stream, whose sizes differ by at most 1.

    With more workers than structures, equal bounds are merged, so there
    are fewer ranges than ``workers`` but none is empty.
    """
    total = ordered_offsets(n)[-1]
    bounds = sorted({start + w * (total - start) // workers for w in range(workers + 1)})
    return list(zip(bounds, bounds[1:]))


def _sweep_chunk(args) -> SweepReport:
    n, chunk, check_ids = args
    return sweep(enumerate_ordered_semigroups(n, positions=chunk), check_ids)


def _merge(reports) -> SweepReport:
    """The reports concatenated in order, extending the first in place."""
    merged = next(reports, SweepReport(0, [], []))
    for report in reports:
        merged.total += report.total
        merged.disagreements.extend(report.disagreements)
        merged.transcripts.extend(report.transcripts)
    return merged


def sweep_order(n: int, workers: int = 1, check_ids=CHECK_IDS, start: int = 0) -> SweepReport:
    """Sweep the order-n stream from position ``start`` to its end.

    At most ``os.cpu_count()`` ranges.  One range runs here, with no pool
    and no fork; more run in a process pool, and ``pool.map`` returns them
    in order, so the merged report lists structures and disagreements in
    the serial order.
    """
    # the split builds the table list and every table's compatible orders
    # before any pool starts, so forked workers inherit both caches
    chunks = split_positions(n, min(workers, os.cpu_count() or 1), start)
    args = [(n, chunk, check_ids) for chunk in chunks]
    if len(args) < 2:
        return _merge(map(_sweep_chunk, args))
    # imported here so a serial run never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=len(args)) as pool:
        return _merge(pool.map(_sweep_chunk, args))
