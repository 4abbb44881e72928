"""Exhaustive generation of small semigroups, posets, and compatible
ordered semigroups, with deterministic resume tokens.

Canonical sequence: the multiplication tables come in lexicographic order
of their row-major flattening.  One search finds the least table of each
isomorphism class (``_lex_leader_tables``: backtracking that tests every
associativity triple as soon as its four products are known, so no leaf
needs a second check, and cuts a branch when a relabeling of its partial
table already sorts below it); the labeled list is the sorted union of
their orbits under all n! relabelings (``_labeled_tables``).  Partial
orders are the pair sets in ascending order of bitmask, found by a search
that decides the pair bits from the highest down and cuts every branch
that breaks antisymmetry or transitivity, each leaf certified once by
``core._partial_order``, the validator's own axiom check; an
ordered-semigroup stream pairs each table with its compatible orders in
that fixed order.  Two runs therefore yield identical sequences.  The
search keeps each certificate whole (``_certified_orders``, once per order
per process; ``all_posets`` is their leq matrices), and the stream builds
every structure from one through ``core._ordered``, which checks
compatibility with the table.

A table's compatible orders come from one mask per strict pair (a, b): the
pairs (ca, cb) and (ac, bc) that a compatible order holding a <= b must
also hold.  They are tested against all posets at once, as bitsets of
poset positions, and cached per table as positions in ``all_posets(n)``.

The table search runs once per process: ``all_semigroup_tables`` caches
the labeled list, and every stream reads that list.  A flat table is cut
into rows through one pool per order (``_flat_to_rows``), so the tables of
an order share at most n^n row objects.  The ordered-semigroup stream is
addressed by position: table t's orders sit at positions offsets[t] ..
offsets[t+1]-1 (``ordered_offsets``, counted once per order per process),
and ``enumerate_ordered_semigroups(n, positions=(lo, hi))``
yields lo .. hi-1.  A resume token ``o{n}:<table>:<k>`` names the
position of order k of that table: ``resume_token`` builds it from a
position and ``resume_position`` turns it back into the position after
it, where a resumed run starts.  A token is checked against the stream it
addresses: its table must be in the table list and its order index below
that table's count of orders, so a token names a position of the stream
or is refused.  The first item of any stream arrives only
after the full search has finished.

``_table_orders`` is the one walk over a range of positions: it yields
each table of the range, validated once, with the positions of its orders
in the range.  The structure stream builds from it, and so does
``sweep``, which walks it one table at a time.

The streams are labeled: theorem sweeps need logical coverage, so every
table of every class is yielded, each once.  The class representatives are
the lex leaders, the tables equal to their own canonical form (the least
``core._relabel`` under all carrier permutations).  The brute-force
``canonical_form`` that the tests hold the lex-leader search to lives with
the other oracles, in ``tests/order4_oracles.py``.
"""

from __future__ import annotations

import random
import re
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import accumulate, permutations
from operator import itemgetter
from typing import Iterable, Iterator

from . import limits
from .core import (
    FiniteSemigroup,
    OrderedSemigroup,
    _ordered,
    _partial_order,
    integers,
    validate_semigroup,
)
from .errors import BadEnumeration

DEFAULT_SAMPLE_SEED = 20260810


def _relabelings(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(sigma, source) for every permutation sigma of 0..n-1.  The relabeled
    table sigma T has sigma(T[source[c]]) at flat cell c: cell (i, j) reads
    the cell (sigma^-1 i, sigma^-1 j), as in ``core._relabel``."""
    out = []
    for sigma in permutations(range(n)):
        inverse = [0] * n
        for a, b in enumerate(sigma):
            inverse[b] = a
        out.append((sigma, tuple(inverse[i] * n + inverse[j] for i in range(n) for j in range(n))))
    return out


def _lex_leader_tables(n: int) -> Iterator[tuple[int, ...]]:
    """The least table of each isomorphism class on n elements, flat,
    lexicographic (the lex-leader search).

    Cells fill row-major.  Setting a cell tests every triple (xy)z = x(yz)
    whose four products are then known, with the new cell in each position
    it can take: xy, yz, the outer (xy)z and the outer x(yz).  A triple is
    tested when the last of its products is set, so every partial table is
    consistent and every leaf is associative.

    At the end of every row, the leaf included, the branch is cut when some
    relabeling sigma T already sorts below the partial table T.  The two are
    compared cell by cell in row-major order up to the first cell unknown
    on either side; a cell of sigma T is known when its source cell is set.
    Every completion of a cut branch has a smaller relabeling, so no least
    table is cut, and at a leaf every cell is known, so only least tables
    remain: each class yields its least table once.
    """
    cells = [(i, j) for i in range(n) for j in range(n)]
    total = n * n
    table = [[-1] * n for _ in range(n)]
    # the set cells (a, b) with table[a][b] == v, for each value v
    preimage: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    # the first, the identity, never sorts below T
    relabelings = _relabelings(n)[1:]

    def partial_ok(i: int, j: int) -> bool:
        v = table[i][j]
        row_v = table[v]
        row_i = table[i]
        # the new cell as xy: (ij)c = i(jc)
        for c in range(n):
            q = table[j][c]
            if q >= 0:
                left = row_v[c]
                right = row_i[q]
                if left >= 0 and right >= 0 and left != right:
                    return False
        # as yz: (ai)j = a(ij)
        for a in range(n):
            p = table[a][i]
            if p >= 0:
                left = table[p][j]
                right = table[a][v]
                if left >= 0 and right >= 0 and left != right:
                    return False
        # as the outer (xy)z, xy = ab = i: (ab)j = a(bj)
        for a, b in preimage[i]:
            q = table[b][j]
            if q >= 0:
                right = table[a][q]
                if right >= 0 and right != v:
                    return False
        # as the outer x(yz), yz = bc = j: i(bc) = (ib)c
        for b, c in preimage[j]:
            p = row_i[b]
            if p >= 0:
                left = table[p][c]
                if left >= 0 and left != v:
                    return False
        return True

    def least_so_far(known: int) -> bool:
        # cells 0 .. known-1 are set; every later cell is unknown
        flat = [v for row in table for v in row]
        for sigma, source in relabelings:
            for c in range(known):
                s = flat[source[c]]
                if s < 0:
                    break
                s = sigma[s]
                if s != flat[c]:
                    if s < flat[c]:
                        return False
                    break
        return True

    def rec(d: int):
        if d == total:
            yield tuple(table[i][j] for i, j in cells)
            return
        i, j = cells[d]
        for v in range(n):
            table[i][j] = v
            preimage[v].append((i, j))
            if partial_ok(i, j) and (j < n - 1 or least_so_far(d + 1)):
                yield from rec(d + 1)
            preimage[v].pop()
            table[i][j] = -1

    yield from rec(0)


def _labeled_tables(n: int, leaders: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Every table isomorphic to one of the leaders, flat, lexicographic:
    each leader under all n! relabelings, repeats within its orbit dropped.
    Distinct classes have disjoint orbits, so no table repeats."""
    relabel = [
        # itemgetter of one index returns the entry, not a 1-tuple; at n = 1
        # the one relabeling is the identity
        (sigma.__getitem__, itemgetter(*source) if n > 1 else tuple)
        for sigma, source in _relabelings(n)
    ]
    tables = []
    for flat in leaders:
        tables.extend({tuple(map(at, read(flat))) for at, read in relabel})
    tables.sort()
    return tables


# per order: each distinct row once, so the tables of one order share their
# row objects; at most n^n rows
_ROW_POOLS: dict[int, dict] = {}


def _flat_to_rows(n: int, flat: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    pool = _ROW_POOLS.setdefault(n, {})
    rows = (flat[i * n : (i + 1) * n] for i in range(n))
    return tuple(pool.setdefault(row, row) for row in rows)


def _check_order(n: int) -> int:
    """The order as an int (``integers``), positive and within the
    ``semigroups`` guard."""
    (n,) = integers([n], "order")
    if n < 1:
        raise BadEnumeration(f"order must be a positive integer, got {n}")
    limits.check("semigroups", n)
    return n


_TABLE_LISTS: dict[int, tuple] = {}


def all_semigroup_tables(n: int) -> tuple:
    """All associative flat tables on n elements, lexicographic (cached):
    the orbits of the lex-leader search's tables."""
    n = _check_order(n)
    if n not in _TABLE_LISTS:
        _TABLE_LISTS[n] = tuple(_labeled_tables(n, _lex_leader_tables(n)))
    return _TABLE_LISTS[n]


def enumerate_semigroups(n: int) -> Iterator[FiniteSemigroup]:
    """Stream of all FiniteSemigroups on n labeled elements."""
    n = _check_order(n)
    return (validate_semigroup(n, _flat_to_rows(n, flat)) for flat in all_semigroup_tables(n))


def _strict_pairs(n: int) -> list[tuple[int, int]]:
    """The pairs (a, b) with a != b, row-major: bit p of a poset's mask."""
    return [(a, b) for a in range(n) for b in range(n) if a != b]


@lru_cache(maxsize=None, typed=True)
def all_posets(n: int) -> tuple:
    """Every partial order on n labeled points, as leq matrices: the leq of
    each certificate of ``_certified_orders(n)``, in the same positions.
    An n that is not an integer or is negative is a ValueError naming it;
    the cache is typed, so 2.0 reaches the check and not the entry of 2."""
    (n,) = integers([n], "n")
    if n < 0:
        raise ValueError(f"n must be at least 0, got {n}")
    return tuple(leq for leq, _ in _certified_orders(n))


@lru_cache(maxsize=None)
def _certified_orders(n: int) -> tuple:
    """Every partial order on n labeled points, as ``core._partial_order``
    certifies it: (leq, covers).

    Deterministic order: bit p of a poset's mask is the p-th non-reflexive
    pair, row-major, and the posets come in ascending order of mask.  A
    depth-first search decides the bits from the highest down, 0 before 1,
    and cuts a branch as soon as the pairs decided so far break an axiom:
    (a, b) and (b, a) both set, or (a, b) and (b, c) set and (a, c) unset.
    Each leaf is then certified by ``core._partial_order``, the validator's
    own axiom check, which the search never stands in for, and its
    certificate is kept whole.
    """
    pairs = _strict_pairs(n)
    bit = {pair: 1 << p for p, pair in enumerate(pairs)}

    def decided_before(p: int, *qs: tuple[int, int]) -> bool:
        return all(bit[q] > 1 << p for q in qs)

    # For pair p = (x, y), the axioms whose other pairs are decided before
    # p.  Setting p breaks one when the mask holds `has` but not `lacks`
    # (antisymmetry has lacks = 0, so holding (y, x) breaks it); leaving p
    # unset breaks one when the mask holds both pairs of a path x -> b -> y.
    breaks_if_set, breaks_if_unset = [], []
    for p, (x, y) in enumerate(pairs):
        others = [z for z in range(n) if z not in (x, y)]
        antisymmetry = [(bit[y, x], 0)] if decided_before(p, (y, x)) else []
        breaks_if_set.append(
            antisymmetry
            + [(bit[y, c], bit[x, c]) for c in others if decided_before(p, (y, c), (x, c))]
            + [(bit[a, x], bit[a, y]) for a in others if decided_before(p, (a, x), (a, y))]
        )
        breaks_if_unset.append(
            [bit[x, b] | bit[b, y] for b in others if decided_before(p, (x, b), (b, y))]
        )

    found = []

    def rec(p: int, mask: int) -> None:
        if p < 0:
            subset = tuple(pair for pair in pairs if mask & bit[pair])
            found.append(_partial_order(n, subset, False))
            return
        if not any(mask & path == path for path in breaks_if_unset[p]):
            rec(p - 1, mask)
        if not any(mask & has and not mask & lacks for has, lacks in breaks_if_set[p]):
            rec(p - 1, mask | 1 << p)

    rec(len(pairs) - 1, 0)
    return tuple(found)


@lru_cache(maxsize=None)
def _posets_with_pair(n: int) -> tuple[tuple[int, ...], int]:
    """For each strict pair p, the set of positions in ``all_posets(n)``
    whose order holds p, as a bitset; and the set of all positions."""
    posets = all_posets(n)
    holding = tuple(
        sum(1 << k for k, leq in enumerate(posets) if leq[a][b]) for a, b in _strict_pairs(n)
    )
    return holding, (1 << len(posets)) - 1


@lru_cache(maxsize=None)
def _compatible_orders_flat(n: int, flat: tuple[int, ...]) -> tuple[int, ...]:
    """Ascending positions in ``all_posets(n)`` of the orders compatible
    with the table.

    ``need[p]`` is the strict-pair mask of the non-diagonal pairs (ca, cb)
    and (ac, bc) over every c, for p = (a, b).  A poset with strict-pair
    mask M is compatible iff ``need[p]`` lies inside M for every p in M.
    The test runs on bitsets of poset positions: a poset is dropped when it
    holds some p and lacks some pair of ``need[p]``.
    """
    rows = _flat_to_rows(n, flat)
    cols = tuple(zip(*rows))
    pairs = _strict_pairs(n)
    bit = [[0] * n for _ in range(n)]
    for p, (a, b) in enumerate(pairs):
        bit[a][b] = 1 << p
    holding, everything = _posets_with_pair(n)
    dropped = 0
    for p, (a, b) in enumerate(pairs):
        row_a, row_b, col_a, col_b = rows[a], rows[b], cols[a], cols[b]
        need = 0
        for c in range(n):
            need |= bit[col_a[c]][col_b[c]] | bit[row_a[c]][row_b[c]]
        lacking = 0
        while need:
            low = need & -need
            lacking |= everything ^ holding[low.bit_length() - 1]
            need ^= low
        dropped |= holding[p] & lacking
    kept = everything & ~dropped
    positions = []
    while kept:
        low = kept & -kept
        positions.append(low.bit_length() - 1)
        kept ^= low
    return tuple(positions)


def enumerate_compatible_orders(f: FiniteSemigroup) -> list:
    """All partial orders compatible with F's table; the discrete order always appears."""
    limits.check("orders", f.size)
    flat = tuple(v for row in f.table for v in row)
    posets = all_posets(f.size)
    return [posets[k] for k in _compatible_orders_flat(f.size, flat)]


# per order: the table list and the order lister the offsets were counted
# from, and the offsets
_OFFSETS: dict[int, tuple] = {}


def ordered_offsets(n: int) -> list[int]:
    """The stream position of each table's first order, then the total.

    Counted once per order per process, and again whenever the table list
    or ``_compatible_orders_flat`` is not the object they were counted
    from, as when a test replaces either.  Callers share the list and must
    not change it.
    """
    tables, orders_of = all_semigroup_tables(n), _compatible_orders_flat
    held = _OFFSETS.get(n)
    if held is None or held[0] is not tables or held[1] is not orders_of:
        counts = (len(orders_of(n, flat)) for flat in tables)
        held = _OFFSETS[n] = (tables, orders_of, list(accumulate(counts, initial=0)))
    return held[2]


def resume_token(n: int, position: int) -> str:
    """The token ``o{n}:<table>:<k>`` of a stream position: order k of that
    table's compatible orders."""
    offsets = ordered_offsets(n)
    (position,) = integers([position], "position")
    if not 0 <= position < offsets[-1]:
        raise BadEnumeration(f"position {position} outside 0..{offsets[-1] - 1}")
    t = bisect_right(offsets, position) - 1
    flat = all_semigroup_tables(n)[t]
    return f"o{n}:" + "".join(str(v) for v in flat) + f":{position - offsets[t]}"


def resume_position(n: int, token: str) -> int:
    """The stream position after the one a resume token names.

    The token is looked up in the stream it addresses: a malformed token,
    a table that is not in ``all_semigroup_tables(n)`` and an order index
    past the table's compatible orders raise ``BadEnumeration``.
    """
    n = _check_order(n)
    match = re.fullmatch(rf"o{n}:([0-{n - 1}]{{{n * n}}}):([0-9]+)", token)
    if match is None:
        raise BadEnumeration(f"bad resume token for order {n}: {token!r}")
    flat, k = tuple(int(d) for d in match[1]), int(match[2])
    tables, offsets = all_semigroup_tables(n), ordered_offsets(n)
    t = bisect_left(tables, flat)
    if tables[t : t + 1] != (flat,):
        raise BadEnumeration(f"bad resume token {token!r}: the table is not a semigroup")
    if k >= offsets[t + 1] - offsets[t]:
        raise BadEnumeration(f"bad resume token {token!r}: no compatible order {k}")
    return offsets[t] + k + 1


def _table_orders(
    n: int, positions: tuple[int, int] | None = None
) -> Iterator[tuple[FiniteSemigroup, tuple[int, ...]]]:
    """The walk over stream positions lo .. hi-1 (``positions``, or the
    whole stream): for each table holding one of them, in stream order, the
    table validated once and the positions in ``all_posets(n)`` (and in
    ``_certified_orders(n)``) of its orders in the range."""
    tables = all_semigroup_tables(n)
    offsets = ordered_offsets(n)
    try:
        lo, hi = (0, offsets[-1]) if positions is None else integers(positions, "positions")
    except (TypeError, ValueError):
        raise BadEnumeration(f"positions {positions!r} is not a pair of integers") from None
    if not 0 <= lo <= hi <= offsets[-1]:
        raise BadEnumeration(f"positions {lo}..{hi} outside 0..{offsets[-1]}")
    for t in range(bisect_right(offsets, lo) - 1, bisect_left(offsets, hi)):
        flat = tables[t]
        f = validate_semigroup(n, _flat_to_rows(n, flat))
        yield f, _compatible_orders_flat(n, flat)[max(lo - offsets[t], 0) : hi - offsets[t]]


def enumerate_ordered_semigroups(
    n: int, positions: tuple[int, int] | None = None
) -> Iterator[OrderedSemigroup]:
    """Stream of all OrderedSemigroups on n labeled elements.

    ``positions=(lo, hi)`` yields stream positions lo .. hi-1 only.  Each
    table is validated once (``_table_orders``), each poset's order axioms
    are certified once per process (``_certified_orders``), and
    compatibility is checked on every yielded structure by
    ``core._ordered``, so every structure passes full validation.
    """
    n = _check_order(n)
    certified = _certified_orders(n)
    return (_ordered(f, certified[k]) for f, orders in _table_orders(n, positions) for k in orders)


def sample_ordered_semigroups(
    n: int, count: int, seed: int = DEFAULT_SAMPLE_SEED
) -> Iterator[OrderedSemigroup]:
    """Deterministic sample: uniform table, then uniform compatible order.
    A count that is not an integer (``integers``) or is negative is a
    ValueError naming it."""
    n = _check_order(n)
    (count,) = integers([count], "count")
    if count < 0:
        raise BadEnumeration(f"count must be at least 0, got {count}")
    tables = all_semigroup_tables(n)
    certified = _certified_orders(n)
    rng = random.Random(seed)
    for _ in range(count):
        flat = tables[rng.randrange(len(tables))]
        orders = _compatible_orders_flat(n, flat)
        k = orders[rng.randrange(len(orders))]
        yield _ordered(validate_semigroup(n, _flat_to_rows(n, flat)), certified[k])


def transcript_hash(docs: Iterable[str], sort: bool = False) -> str:
    """SHA-256 over a sequence of serialized structure documents."""
    if sort:
        docs = sorted(docs)
    # imported here, not at module level: hashlib loads OpenSSL, which costs
    # every `import ordsgp` a few MB of RSS that only hashing callers need
    import hashlib

    digest = hashlib.sha256()
    for doc in docs:
        digest.update(doc.encode("utf-8"))
    return digest.hexdigest()
