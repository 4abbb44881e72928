"""Sweep machinery: run every registered check over enumerated structures.

A sweep evaluates each equivalence bundle (skipping those whose premise a
structure does not meet) and each structure theorem; any ``agree = False``
result is collected as a Disagreement carrying the serialized structure
and every condition with its counterexample detail, so a counterexample is
reproducible from the report alone.

Multi-worker sweeps split the table search space by the first table row;
each worker's sub-stream is independently deterministic, and merged
transcripts are sorted before hashing.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .classification import BUNDLE_ORDER, equivalence_bundle
from .congruence import THEOREM_ORDER, structure_theorem_check
from .core import OrderedSemigroup
from .enumeration import enumerate_ordered_semigroups
from .errors import NotApplicable
from .fileformat import serialize_document
from .report import ConditionResult

BUNDLE_IDS = BUNDLE_ORDER
THEOREM_IDS = THEOREM_ORDER
ALL_CHECK_IDS = BUNDLE_IDS + THEOREM_IDS


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

    @property
    def ok(self) -> bool:
        return not self.disagreements


def sweep(
    structures,
    bundle_ids=BUNDLE_IDS,
    theorem_ids=THEOREM_IDS,
    keep_transcripts: bool = True,
) -> SweepReport:
    total = 0
    disagreements: list[Disagreement] = []
    transcripts: list[str] = []
    for s in structures:
        total += 1
        if keep_transcripts:
            transcripts.append(serialize_document(s))
        disagreements.extend(check_structure(s, bundle_ids, theorem_ids))
    return SweepReport(total, disagreements, transcripts)


def split_first_rows(n: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous first-row index ranges covering the whole search space."""
    space = n ** n
    workers = max(1, min(workers, space))
    bounds = [round(w * space / workers) for w in range(workers + 1)]
    return [(bounds[w], bounds[w + 1]) for w in range(workers)]


def _sweep_chunk(args) -> tuple[int, list[Disagreement], list[str]]:
    n, chunk, bundle_ids, theorem_ids = args
    stream = enumerate_ordered_semigroups(n, first_row_range=chunk)
    report = sweep(stream, bundle_ids, theorem_ids)
    return report.total, report.disagreements, report.transcripts


def parallel_sweep(
    n: int,
    workers: int,
    bundle_ids=BUNDLE_IDS,
    theorem_ids=THEOREM_IDS,
) -> SweepReport:
    """Sweep the full order-n enumeration across worker processes.

    Transcripts from the workers are merged and sorted, so the sorted
    transcript hash is identical for every worker count.
    """
    chunks = split_first_rows(n, workers)
    args = [(n, chunk, tuple(bundle_ids), tuple(theorem_ids)) for chunk in chunks]
    if len(chunks) == 1:
        total, disagreements, transcripts = _sweep_chunk(args[0])
        return SweepReport(total, list(disagreements), list(transcripts))
    totals = 0
    disagreements = []
    transcripts = []
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        for total, disagrees, docs in pool.map(_sweep_chunk, args):
            totals += total
            disagreements.extend(disagrees)
            transcripts.extend(docs)
    transcripts.sort()
    return SweepReport(totals, disagreements, transcripts)
