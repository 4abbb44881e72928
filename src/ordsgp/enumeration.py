"""Exhaustive generation of small semigroups, posets, and compatible
ordered semigroups, with deterministic resume tokens.

Canonical sequence: multiplication tables are generated in lexicographic
order of their row-major flattening (backtracking with incremental
associativity pruning); partial orders are generated in ascending order of
their pair-set bitmask; an ordered-semigroup stream pairs each table with
its compatible orders in that fixed order.  Two runs therefore yield
identical sequences, and a resume token (the last yielded position)
restarts a stream exactly after that position.

Enumeration is labeled, not isomorphism-reduced: theorem sweeps need
logical coverage.  ``canonical_form`` provides an optional dedup key
(minimum relabeling under all carrier permutations) for reporting.
"""

from __future__ import annotations

import hashlib
import random
import re
from functools import lru_cache
from itertools import permutations
from typing import Iterable, Iterator

from . import limits
from .core import (
    FiniteSemigroup,
    OrderedSemigroup,
    _check_associative,
    validate_semigroup,
    validate_structure,
)
from .errors import BadEnumeration, NotAssociative

DEFAULT_SAMPLE_SEED = 20260810


class EnumerationStream:
    """Iterator with a deterministic resume token and a running count."""

    def __init__(self, kind: str, order: int, gen: Iterator):
        self.kind = kind
        self.order = order
        self._gen = gen
        self.count = 0
        self.resume_token: str | None = None

    def __iter__(self):
        return self

    def __next__(self):
        item, token = next(self._gen)
        self.count += 1
        self.resume_token = token
        return item


def _tables_dfs(
    n: int,
    resume_flat: tuple[int, ...] | None = None,
    first_row_range: tuple[int, int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """All associative tables on n labeled elements, flat, lexicographic.

    Cells fill row-major with associativity pruned as soon as the triples
    touching the new cell are decided; a full check at each leaf guards the
    pruning.  ``resume_flat`` skips everything up to and including that
    table; ``first_row_range`` keeps only tables whose first row, read as a
    base-n number, falls in [lo, hi).
    """
    cells = [(i, j) for i in range(n) for j in range(n)]
    total = n * n
    table = [[-1] * n for _ in range(n)]

    def partial_ok(i: int, j: int) -> bool:
        v = table[i][j]
        row_v = table[v]
        row_i = table[i]
        for c in range(n):
            q = table[j][c]
            if q >= 0:
                left = row_v[c]
                right = row_i[q]
                if left >= 0 and right >= 0 and left != right:
                    return False
        for a in range(n):
            p = table[a][i]
            if p >= 0:
                left = table[p][j]
                right = table[a][v]
                if left >= 0 and right >= 0 and left != right:
                    return False
        return True

    def full_ok() -> bool:
        for a in range(n):
            ra = table[a]
            for b in range(n):
                rab = table[ra[b]]
                rb = table[b]
                for c in range(n):
                    if rab[c] != ra[rb[c]]:
                        return False
        return True

    def rec(d: int, tight: bool):
        if d == total:
            if tight:
                return
            if full_ok():
                yield tuple(table[i][j] for i, j in cells)
            return
        i, j = cells[d]
        start = resume_flat[d] if tight else 0
        for v in range(start, n):
            table[i][j] = v
            if partial_ok(i, j):
                if d == n - 1 and first_row_range is not None:
                    idx = 0
                    for jj in range(n):
                        idx = idx * n + table[0][jj]
                    if not first_row_range[0] <= idx < first_row_range[1]:
                        table[i][j] = -1
                        continue
                yield from rec(d + 1, tight and v == start)
            table[i][j] = -1

    yield from rec(0, resume_flat is not None)


def _flat_to_rows(n: int, flat: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    return tuple(flat[i * n : (i + 1) * n] for i in range(n))


def _check_order(n: int) -> None:
    if n < 1:
        raise BadEnumeration(f"order must be a positive integer, got {n}")
    limits.check("semigroups", n)


def _semigroup_token(n: int, flat: tuple[int, ...]) -> str:
    return f"s{n}:" + "".join(str(v) for v in flat)


def _parse_token(n: int, token: str, kind: str) -> tuple[tuple[int, ...], int]:
    """The associative table and the order index of a resume token.

    ``kind`` is "o" for ordered-semigroup tokens; "s" tokens (semigroups)
    carry no order index and report 0.
    """
    suffix = ":([0-9]+)" if kind == "o" else ""
    match = re.fullmatch(rf"{kind}{n}:([0-{n - 1}]{{{n * n}}}){suffix}", token)
    if match is None:
        raise BadEnumeration(f"bad resume token for order {n}: {token!r}")
    flat = tuple(int(d) for d in match[1])
    try:
        _check_associative(n, _flat_to_rows(n, flat))
    except NotAssociative as exc:
        raise BadEnumeration(f"bad resume token {token!r}: {exc}") from None
    return flat, int(match[2]) if kind == "o" else 0


def enumerate_semigroups(
    n: int,
    resume: str | None = None,
    first_row_range: tuple[int, int] | None = None,
) -> EnumerationStream:
    """Stream of all FiniteSemigroups on n labeled elements."""
    _check_order(n)
    resume_flat = _parse_token(n, resume, "s")[0] if resume else None

    def gen():
        for flat in _tables_dfs(n, resume_flat, first_row_range):
            yield validate_semigroup(n, _flat_to_rows(n, flat)), _semigroup_token(n, flat)

    return EnumerationStream("semigroup", n, gen())


@lru_cache(maxsize=None)
def all_posets(n: int) -> tuple:
    """Every partial order on n labeled points, as leq matrices.

    Deterministic order: non-reflexive pairs are listed row-major and pair
    subsets are scanned by ascending bitmask.
    """
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    found = []
    for bitsmask in range(1 << len(pairs)):
        leq = [[i == j for j in range(n)] for i in range(n)]
        for p, (a, b) in enumerate(pairs):
            if (bitsmask >> p) & 1:
                leq[a][b] = True
        ok = True
        for a in range(n):
            if not ok:
                break
            for b in range(n):
                if a != b and leq[a][b]:
                    if leq[b][a]:
                        ok = False
                        break
                    for c in range(n):
                        if leq[b][c] and not leq[a][c]:
                            ok = False
                            break
        if ok:
            found.append(tuple(tuple(row) for row in leq))
    return tuple(found)


@lru_cache(maxsize=None)
def _compatible_orders_flat(n: int, flat: tuple[int, ...]) -> tuple:
    table = _flat_to_rows(n, flat)
    result = []
    for leq in all_posets(n):
        ok = True
        for a in range(n):
            if not ok:
                break
            la = leq[a]
            for b in range(n):
                if a != b and la[b]:
                    good = True
                    for c in range(n):
                        tc = table[c]
                        if not leq[tc[a]][tc[b]] or not leq[table[a][c]][table[b][c]]:
                            good = False
                            break
                    if not good:
                        ok = False
                        break
        if ok:
            result.append(leq)
    return tuple(result)


def enumerate_compatible_orders(f: FiniteSemigroup) -> list:
    """All partial orders compatible with F's table; the discrete order always appears."""
    limits.check("orders", f.size)
    flat = tuple(v for row in f.table for v in row)
    return list(_compatible_orders_flat(f.size, flat))


def _leq_pairs(leq) -> list[tuple[int, int]]:
    n = len(leq)
    return [(a, b) for a in range(n) for b in range(n) if a != b and leq[a][b]]


def _ordered_token(n: int, flat: tuple[int, ...], k: int) -> str:
    return f"o{n}:" + "".join(str(v) for v in flat) + f":{k}"


def enumerate_ordered_semigroups(
    n: int,
    resume: str | None = None,
    first_row_range: tuple[int, int] | None = None,
) -> EnumerationStream:
    """Stream of all OrderedSemigroups on n labeled elements.

    Every yielded structure passes full validation.
    """
    _check_order(n)
    resume_flat = None
    if resume:
        resume_flat, start_k = _parse_token(n, resume, "o")
        if start_k >= len(_compatible_orders_flat(n, resume_flat)):
            raise BadEnumeration(f"bad resume token {resume!r}: no compatible order {start_k}")

    def build(flat, leq, k):
        structure = validate_structure(n, _flat_to_rows(n, flat), _leq_pairs(leq))
        return structure, _ordered_token(n, flat, k)

    def gen():
        if resume:
            orders = _compatible_orders_flat(n, resume_flat)
            for k in range(start_k + 1, len(orders)):
                yield build(resume_flat, orders[k], k)
        for flat in _tables_dfs(n, resume_flat, first_row_range):
            for k, leq in enumerate(_compatible_orders_flat(n, flat)):
                yield build(flat, leq, k)

    return EnumerationStream("ordered-semigroup", n, gen())


_TABLE_LISTS: dict[int, tuple] = {}


def all_semigroup_tables(n: int) -> tuple:
    """All associative flat tables on n elements (cached)."""
    _check_order(n)
    if n not in _TABLE_LISTS:
        _TABLE_LISTS[n] = tuple(_tables_dfs(n))
    return _TABLE_LISTS[n]


def sample_ordered_semigroups(
    n: int, count: int, seed: int = DEFAULT_SAMPLE_SEED
) -> Iterator[OrderedSemigroup]:
    """Deterministic sample: uniform table, then uniform compatible order."""
    tables = all_semigroup_tables(n)
    rng = random.Random(seed)
    for _ in range(count):
        flat = tables[rng.randrange(len(tables))]
        orders = _compatible_orders_flat(n, flat)
        leq = orders[rng.randrange(len(orders))]
        yield validate_structure(n, _flat_to_rows(n, flat), _leq_pairs(leq))


def canonical_form(structure) -> tuple:
    """Least relabeling of the structure under all carrier permutations.

    Structures with equal canonical forms are isomorphic; useful as a
    dedup key when reporting counts up to isomorphism.
    """
    n = structure.size
    table = structure.table
    leq = getattr(structure, "leq", None)
    best = None
    for perm in permutations(range(n)):
        new_table = tuple(
            tuple(perm[table[a][b]] for b in _inv_order(perm, n)) for a in _inv_order(perm, n)
        )
        if leq is not None:
            new_leq = tuple(
                tuple(leq[a][b] for b in _inv_order(perm, n)) for a in _inv_order(perm, n)
            )
            key = (new_table, new_leq)
        else:
            key = (new_table,)
        if best is None or key < best:
            best = key
    return best


@lru_cache(maxsize=None)
def _inv_order(perm: tuple[int, ...], n: int) -> tuple[int, ...]:
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(inv)


def transcript_hash(docs: Iterable[str], sort: bool = False) -> str:
    """SHA-256 over a sequence of serialized structure documents."""
    docs = list(docs)
    if sort:
        docs.sort()
    digest = hashlib.sha256()
    for doc in docs:
        digest.update(doc.encode("utf-8"))
    return digest.hexdigest()
