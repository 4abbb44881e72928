"""Sweep machinery: run every registered check over enumerated structures.

The checks are ``classification.CHECKS``: the equivalence bundles first,
then the structure theorems.  A sweep evaluates the checks it is given in
that order, skipping a check whose premise a structure does not meet;
any ``agree = False`` result is collected as a Disagreement: the check's
own ``BundleResult``, which holds every condition with its counterexample
detail, and the serialized structure, so a counterexample is reproducible
from the report alone.  Nothing a check caches on a structure refers back
to it (relations are their class ids, subsets their masks), so a swept
structure is freed by reference counting as soon as it is dropped, here
or wherever else its checks ran.

``sweep_order`` sweeps the ordered-semigroup stream of one order from a
start position to its end without keeping the stream's documents.  One
walk does it, ``_table_blocks``: one block per table of the range (the
first may start at a resume position), in stream order.  Each block's
documents are fed in stream order to a running SHA-256 sequence digest,
then sorted and fed to a running sorted digest, and dropped.

Every document is written by ``serialize_document``'s own writers: its
table's head, once per table, and its poset's order block.  With checks,
each structure is built from its certified order and checked.  Without,
nothing reads a structure, so none is built: ``core._compatible`` alone
checks each order on its table.  The empty check list is the only switch.

Sorting every block on its own and taking the blocks in stream order gives
the global sort of all documents.  Tables come in lexicographic order of
their flat tables, and for n <= 10 every table entry is one digit, so a
document's table text sorts in the order of its flat table.  The fold
checks this at every seam: a block's least document must not sort below
the previous block's greatest, or it raises ``InvariantViolation`` and no
sorted hash is reported.

One worker folds the walk over the whole range in the calling process,
one table at a time, with no pool and no fork.  Several workers walk
table-aligned ranges in a process pool, each of about 1/(16 × workers)
of the positions to sweep and at most about 4,096, and return the range's
blocks.  The parent folds them in stream order and keeps at most two
ranges per worker in flight, so it holds about an eighth of the stream at
most, and a fixed number of documents on long streams.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from .classification import CHECK_IDS, CHECKS
from .core import OrderedSemigroup, _compatible, _ordered
from .enumeration import _certified_orders, _table_orders, all_posets, ordered_offsets
from .errors import InvariantViolation, NotApplicable
from .fileformat import _head_text, _order_text, serialize_document
from .report import BundleResult


@dataclass(frozen=True)
class Disagreement:
    result: BundleResult
    document: str


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
            found.append(Disagreement(result, doc))
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


@dataclass(frozen=True)
class StreamReport:
    """A swept stream range: how many structures, their disagreements in
    stream order, and the SHA-256 of their documents in stream order and in
    sorted order (``transcript_hash`` without and with ``sort``)."""

    total: int
    disagreements: list[Disagreement]
    sequence_hash: str
    sorted_hash: str


# positions in one pool range, at most: bounds what the parent holds on a
# long stream (order 5 has 22.8M positions)
_MAX_RANGE = 4096


def table_ranges(n: int, size: int, start: int = 0):
    """Contiguous position ranges covering start .. the end of the order-n
    stream, each ending at a table boundary.

    A range ends at the first table boundary at least ``size`` positions
    past its start, or at the end of the stream.  With ``size`` 1 each
    range is one table, the first from ``start`` to its table's end.
    """
    offsets = ordered_offsets(n)
    lo = start
    for end in offsets[bisect_right(offsets, start) :]:
        if end - lo >= size or end == offsets[-1]:
            yield lo, end
            lo = end


@lru_cache(maxsize=None)
def _order_texts(n: int) -> tuple[str, ...]:
    """Each poset's order block, in the positions of ``all_posets(n)``."""
    return tuple(_order_text(leq) for leq in all_posets(n))


def _table_blocks(n: int, positions: tuple[int, int], check_ids):
    """The sweep of stream positions lo .. hi-1, one report per table, in
    stream order.  Structures are built from their certified orders and
    checked only when ``check_ids`` is not empty; otherwise
    ``core._compatible`` alone checks each order on its table."""
    certified, texts = _certified_orders(n), _order_texts(n)
    for f, orders in _table_orders(n, positions):
        disagreements = []
        for k in orders:
            if check_ids:
                disagreements += check_structure(_ordered(f, certified[k]), check_ids)
            else:
                _compatible(f, certified[k])
        head = _head_text(True, n, None, f.table)
        yield SweepReport(len(orders), disagreements, [head + texts[k] for k in orders])


def _sweep_chunk(args) -> list[SweepReport]:
    return list(_table_blocks(*args))


def _in_order(pool, args, in_flight: int):
    """``_sweep_chunk`` over args in the pool, yielded in order, with at
    most ``in_flight`` results submitted and not yet consumed."""
    pending = deque()
    for arg in args:
        if len(pending) == in_flight:
            yield pending.popleft().result()
        pending.append(pool.submit(_sweep_chunk, arg))
    while pending:
        yield pending.popleft().result()


def _fold(blocks) -> StreamReport:
    """One report over nonempty block reports given in stream order.

    Each block's transcripts are hashed in order, then sorted in place and
    hashed again; a block whose least document sorts below the previous
    block's greatest raises ``InvariantViolation``.
    """
    # imported here, as in transcript_hash: only hashing callers load OpenSSL
    import hashlib

    sequence, ordered = hashlib.sha256(), hashlib.sha256()
    total, disagreements, greatest = 0, [], ""
    for block in blocks:
        docs = block.transcripts
        sequence.update("".join(docs).encode("utf-8"))
        docs.sort()
        if docs[0] < greatest:
            raise InvariantViolation(
                f"the block after {total} structures sorts below the block before it: "
                "sorting one block at a time would not give the global sort"
            )
        ordered.update("".join(docs).encode("utf-8"))
        greatest = docs[-1]
        total += block.total
        disagreements.extend(block.disagreements)
    return StreamReport(total, disagreements, sequence.hexdigest(), ordered.hexdigest())


def sweep_order(n: int, workers: int = 1, check_ids=CHECK_IDS, start: int = 0) -> StreamReport:
    """Sweep the order-n stream from position ``start`` to its end.

    At most ``os.cpu_count()`` workers.  One runs here, with no pool and no
    fork; more sweep ranges in a process pool, folded in stream order, so
    the report lists disagreements in the serial order and its hashes are
    the serial ones.
    """
    # builds the table list, every table's compatible orders and the offsets
    # before any pool starts, so forked workers inherit the caches
    end = ordered_offsets(n)[-1]
    workers = min(workers, os.cpu_count() or 1)
    if workers < 2:
        return _fold(_table_blocks(n, (start, end), check_ids))
    # imported here so a serial run never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    size = min(_MAX_RANGE, (end - start) // (16 * workers) + 1)
    args = ((n, chunk, check_ids) for chunk in table_ranges(n, size, start))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return _fold(chain.from_iterable(_in_order(pool, args, 2 * workers)))
