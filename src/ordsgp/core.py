"""Finite ordered semigroup model and the primitive set operators.

A FiniteSemigroup is a carrier {0, ..., n-1} with an associative
multiplication table; it holds the table, the display names and the
per-structure cache.  OrderedSemigroup is its subclass that adds a partial
order ``leq`` which multiplication preserves on both sides: a <= b implies
c*a <= c*b and a*c <= b*c.  Both are read as they are stored: a*b is
``table[a][b]`` and a <= b is ``leq[a][b]``.  The two stay distinct types
rather than one type with a discrete default order, because the type is
what decides whether a structure is written as a semigroup or an ordered
semigroup and whether the ordered checks accept it.  In the package both are built only
here, by the validators and ``_relabel``, the one relabeling, which
induced substructures and the tests' canonical-form oracle go through;
the order dual that the duality contract reads is built beside that
oracle, in ``tests/order4_oracles.py``.  A subset of the carrier is a
bitmask, bit i standing for element i, and a mask passed in from outside
is checked once against the carrier (``_require_mask``); downward closure

    (H] = {t : t <= h for some h in H}

and the setwise product A*B = {a*b : a in A, b in B} are the primitives
every higher-level computation is built from.  ``product_mask`` is the one
A*B of two subsets: xSy, the SaS of a two-sided principal ideal in
``classification._simple`` and product-closedness are computed through
it.  Where every member's products are needed, they are read off the
table's rows and columns instead, and ``_products`` is their one builder:
it yields (b, Tb, bT) for each member b of a subset T.  Over S it gives
aS and Sa for every a (cached as the multiples, from which the principal
ideals of S come) and the principal ideals that ``classification._simple``
walks one element at a time; over a class it gives the Tb and bT of the
class tests.  The filters' worklist is the one place that keeps its own
product loop, since it multiplies by a set that grows a member at a time.
The power structure's table, which holds A*B for every pair of subsets,
takes each entry as the union of two earlier ones: {a}*B =
{a}*(B - {b}) | {ab} and (R + {a})*B = R*B | {a}*B.
Pair loops remain only where a pair is the answer: ``induced_substructure``
and the decomposition's product condition report the least failing pair,
and the unordered deciders of ``power`` stay definition-level so that a
power correspondence keeps two independent sides.

A table is checked for range and shape (``_check_table``, which keeps a
row that is already a tuple of ints, so the tables of one enumerated order
share their rows) and then for associativity a row at a time
(``_check_associative``): row ij must equal row j read through row i,
which covers every triple k at C speed.  That comparison reads row i only
through its values, so it runs once per distinct row, and only a
mismatching pair walks k for the least failing triple.

An order is validated in two steps, with one memo.  ``_partial_order``
certifies it: keyed by the normalized order input (size, the in-range
integer pairs as given, close_order), it builds the leq matrix, takes the
closure if asked, proves antisymmetry and transitivity and lists the
covers once per distinct key per process; a key that is not a partial
order is not cached and raises again on every call.  ``_compatible``
holds the one compatibility loop: it takes a certified order (leq,
covers) and a validated table and checks compatibility, which depends on
the table as well, on every call.  It tests the covers alone, since every
a < b is a chain of covers along which compatibility follows by
transitivity, and on a failure scans every strict pair row-major to name
the least witness.  ``_ordered`` runs it and builds the structure with
names checked beforehand.  ``validate_structure`` normalizes the order
pairs, certifies them, runs ``_compatible`` and then checks the names; the
enumeration stream, a sweep and the power structure take certificates
kept once (by the poset search, or per |F| for P(F)'s inclusion) and call
``_ordered`` directly, and a check-free sweep calls ``_compatible`` alone
and builds no structure.

Element indices are the canonical identity; display names are cosmetic.
All values are immutable after validation and safe to share.  The
per-structure cache holds masks, tuples and scan results, and relations
as their class ids: nothing in it refers back to its structure, so a
dropped structure is freed by reference counting, not by the cyclic
collector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress, count
from operator import index, itemgetter
from typing import Iterable, Iterator

from .errors import (
    EmptySet,
    NotAntisymmetric,
    NotAssociative,
    NotClosed,
    NotCompatible,
    NotTransitive,
)

Table = tuple[tuple[int, ...], ...]
LeqMatrix = tuple[tuple[bool, ...], ...]
# a partial order as ``_partial_order`` certifies it: leq and its covers
CertifiedOrder = tuple[LeqMatrix, tuple[tuple[int, int], ...]]


@dataclass(frozen=True)
class FiniteSemigroup:
    """A finite semigroup: carrier 0..size-1 plus an associative table."""

    size: int
    table: Table
    names: tuple[str, ...] | None = None
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(size={self.size})"


@dataclass(frozen=True, repr=False)
class OrderedSemigroup(FiniteSemigroup):
    """A finite ordered semigroup: table plus a compatible partial order."""

    leq: LeqMatrix = field(kw_only=True)

    def subset(self, members: Iterable[int]) -> int:
        """The mask of the given elements, each checked against the carrier."""
        return mask_of(_elements(members, self.size, "element"))

    def order_pairs(self) -> list[tuple[int, int]]:
        """All non-reflexive pairs (a, b) with a <= b, sorted."""
        return leq_pairs(self.leq)


def bits(mask: int) -> Iterator[int]:
    """Indices set in a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def leq_pairs(leq: LeqMatrix) -> list[tuple[int, int]]:
    """The non-reflexive pairs (a, b) with a <= b of an order, sorted."""
    n = len(leq)
    return [(a, b) for a in range(n) for b in range(n) if a != b and leq[a][b]]


def mask_of(members: Iterable[int]) -> int:
    mask = 0
    for m in members:
        mask |= 1 << m
    return mask


def integers(values, what: str) -> tuple[int, ...]:
    """The entries as ints.  An entry that ``operator.index`` refuses (a
    float, which ``int`` would truncate, or a string, which it would parse)
    is a ValueError naming it."""
    values = tuple(values)
    try:
        return tuple(map(index, values))
    except TypeError:
        k = next(k for k, v in enumerate(values) if not hasattr(v, "__index__"))
        raise ValueError(f"{what} entry {k} is not an integer: {values[k]!r}") from None


def _elements(values, size: int, what: str) -> tuple[int, ...]:
    """The entries as ints (``integers``), each an element of the carrier
    0..size-1: the one check of every element index passed in from outside.
    The first entry outside the carrier is a ValueError naming it."""
    values = integers(values, what)
    for v in values:
        if not 0 <= v < size:
            raise ValueError(f"{what} {v} out of range 0..{size - 1}")
    return values


_INT = {int}


def _check_table(size: int, table) -> Table:
    if size < 1:
        raise ValueError("size must be a positive integer")
    rows = []
    if len(table) != size:
        raise ValueError(f"table must have {size} rows")
    for i, row in enumerate(table):
        # a tuple of exact ints is kept, so tables can share row objects
        if type(row) is tuple and {*map(type, row)} == _INT:
            r = row
        else:
            r = integers(row, f"table row {i}")
        if len(r) != size:
            raise ValueError(f"table row {i} must have {size} entries")
        if min(r) < 0 or max(r) >= size:
            j = next(j for j, v in enumerate(r) if not 0 <= v < size)
            raise ValueError(f"table entry ({i},{j}) out of range: {r[j]}")
        rows.append(r)
    return tuple(rows)


def _check_associative(size: int, table: Table) -> None:
    """Raise the least ``NotAssociative(i, j, k)`` of a checked table.

    For each (i, j), row ij is compared with row j read through row i, the
    row of i(jk) over all k, as one C-level lookup; only a mismatch walks k
    to name the least failing triple."""
    if size == 1:
        # itemgetter of one index returns the entry, not a 1-tuple
        through = [lambda row, k=tj[0]: (row[k],) for tj in table]
    else:
        through = [itemgetter(*tj) for tj in table]
    for i, ti in enumerate(table):
        # row i's comparisons read it only through its values, so a row
        # equal to an earlier one, which passed them, passes them too
        if ti in table[:i]:
            continue
        for j in range(size):
            row_ij = table[ti[j]]
            if row_ij != through[j](ti):
                tj = table[j]
                for k in range(size):
                    if row_ij[k] != ti[tj[k]]:
                        raise NotAssociative(i, j, k)


def _check_names(size: int, names) -> tuple[str, ...] | None:
    if names is None:
        return None
    out = tuple(str(x) for x in names)
    if len(out) != size:
        raise ValueError(f"expected {size} names, got {len(out)}")
    for nm in out:
        if not nm or any(ch.isspace() for ch in nm) or "#" in nm:
            raise ValueError(f"bad display name: {nm!r}")
    return out


def validate_semigroup(size: int, table, names=None) -> FiniteSemigroup:
    """Check associativity and build a FiniteSemigroup.  The size goes
    through ``integers``, so a float or a string is a ValueError naming it
    and a bool counts as 0 or 1, as in a table."""
    if type(size) is not int:  # the stream validates thousands of tables
        (size,) = integers([size], "size")
    tbl = _check_table(size, table)
    _check_associative(size, tbl)
    return FiniteSemigroup(size, tbl, _check_names(size, names))


def validate_structure(
    size: int,
    table,
    leq_pairs: Iterable[tuple[int, int]] = (),
    names=None,
    close_order: bool = False,
) -> OrderedSemigroup:
    """Check all ordered-semigroup axioms and build the structure.

    ``leq_pairs`` lists the pairs (a, b) with a <= b; reflexive pairs are
    implied and added.  Transitivity is NOT auto-completed (a silent
    closure could mask modeling errors) unless ``close_order`` is set, in
    which case the transitive closure is taken before validation.
    """
    f = validate_semigroup(size, table)
    size = f.size
    pairs = []
    for a, b in leq_pairs:
        try:
            a, b = index(a), index(b)
        except TypeError:
            raise ValueError(f"order pair ({a!r},{b!r}) is not a pair of integers") from None
        if not (0 <= a < size and 0 <= b < size):
            raise ValueError(f"order pair ({a},{b}) out of range")
        pairs.append((a, b))
    certified = _partial_order(size, tuple(pairs), close_order)
    _compatible(f, certified)
    return OrderedSemigroup(size, f.table, _check_names(size, names), leq=certified[0])


def _compatible(f: FiniteSemigroup, certified: CertifiedOrder) -> None:
    """Check that an order ``(leq, covers)`` certified by ``_partial_order``
    is compatible with F's validated table.  Testing the covers suffices:
    every a < b is a chain of covers, and c*a <= c*b (and a*c <= b*c)
    follows along it by transitivity.  On a failure every strict pair is
    tested row-major, left before right, so the error names the least
    ``NotCompatible`` witness."""
    leq, covers = certified
    if next(_incompatible(f, leq, covers), None):
        raise NotCompatible(*next(_incompatible(f, leq, leq_pairs(leq))))


def _incompatible(f: FiniteSemigroup, leq: LeqMatrix, pairs) -> Iterator[tuple]:
    """Each (a, b, c, side) with (a, b) in ``pairs`` at which leq fails to
    hold c*a <= c*b ("left") or a*c <= b*c ("right"), in the order of the
    pairs, then c, then left before right."""
    tbl = f.table
    for a, b in pairs:
        row_a, row_b = tbl[a], tbl[b]
        for c in range(f.size):
            tc = tbl[c]
            if not leq[tc[a]][tc[b]]:
                yield a, b, c, "left"
            if not leq[row_a[c]][row_b[c]]:
                yield a, b, c, "right"


def _ordered(f: FiniteSemigroup, certified: CertifiedOrder, names=None) -> OrderedSemigroup:
    """Check a certified order's compatibility (``_compatible``) and build
    the ordered semigroup with ``names``, which ``_check_names`` has
    already returned."""
    _compatible(f, certified)
    return OrderedSemigroup(f.size, f.table, names, leq=certified[0])


# lru_cache keeps no exception, so a pair list that is not a partial order
# raises again on every call.  The streams keep the poset search's own
# certificates and power keeps P(F)'s inclusion order once per |F|, so the
# hits come from validate_structure callers that repeat an order.
@lru_cache(maxsize=8192)
def _partial_order(
    size: int, pairs: tuple[tuple[int, int], ...], close_order: bool
) -> CertifiedOrder:
    """The leq matrix of in-range ``pairs`` plus the diagonal, closed
    transitively if ``close_order``, and its covers row-major: the pairs
    a < b whose interval [a, b] holds no third element.  Raises unless it
    is a partial order."""
    leq = [[False] * size for _ in range(size)]
    for i in range(size):
        leq[i][i] = True
    for a, b in pairs:
        leq[a][b] = True

    if close_order:
        for k in range(size):
            lk = leq[k]
            for i in range(size):
                if leq[i][k]:
                    li = leq[i]
                    for j in range(size):
                        if lk[j]:
                            li[j] = True

    for i in range(size):
        for j in range(i + 1, size):
            if leq[i][j] and leq[j][i]:
                raise NotAntisymmetric(i, j)
    for i in range(size):
        li = leq[i]
        for j in range(size):
            if li[j] and i != j:
                lj = leq[j]
                for k in range(size):
                    if lj[k] and not li[k]:
                        raise NotTransitive(i, j, k)
    rows = tuple(tuple(row) for row in leq)
    up, down = _row_masks(rows), _row_masks(zip(*rows))
    covers = [(a, b) for a, b in leq_pairs(rows) if up[a] & down[b] == 1 << a | 1 << b]
    return rows, tuple(covers)


# ---------------------------------------------------------------------------
# cached per-structure bitmask helpers


def _cached(s, key, build):
    """The structure's cache entry under key, built by ``build()`` on a miss.
    The hot kernels read ``s._cache.get(key) or _cached(...)``, so a hit
    makes no closure and no call."""
    cache = s._cache
    value = cache.get(key)
    if value is None:
        value = cache[key] = build()
    return value


def full_mask(s: OrderedSemigroup) -> int:
    return (1 << s.size) - 1


def _row_masks(rows) -> tuple[int, ...]:
    """The mask of the true entries of each row of booleans."""
    return tuple(mask_of(compress(count(), row)) for row in rows)


def below_masks(s: OrderedSemigroup) -> tuple[int, ...]:
    """below[i] = mask of {t : t <= i}, the principal down-set (i]."""
    return s._cache.get("below") or _cached(s, "below", lambda: _row_masks(zip(*s.leq)))


def above_masks(s: OrderedSemigroup) -> tuple[int, ...]:
    """above[i] = mask of {x : i <= x}."""
    return s._cache.get("above") or _cached(s, "above", lambda: _row_masks(s.leq))


def _union(masks: tuple[int, ...], mask: int) -> int:
    """The union of masks[i] over the members i of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= masks[low.bit_length() - 1]
        mask ^= low
    return out


def down_mask(s: OrderedSemigroup, mask: int) -> int:
    return _union(below_masks(s), mask)


def product_mask(s: FiniteSemigroup, amask: int, bmask: int) -> int:
    """Mask of A*B = {a*b : a in A, b in B}."""
    table = s.table
    out = 0
    a = amask
    while a:
        la = a & -a
        row = table[la.bit_length() - 1]
        b = bmask
        while b:
            lb = b & -b
            out |= 1 << row[lb.bit_length() - 1]
            b ^= lb
        a ^= la
    return out


def columns(s: FiniteSemigroup) -> Table:
    """The columns of the table: ``columns(s)[b][x]`` is x*b."""
    return s._cache.get("columns") or _cached(s, "columns", lambda: tuple(zip(*s.table)))


def _products(s: FiniteSemigroup, t: int) -> Iterator[tuple[int, int, int]]:
    """(b, Tb, bT) for each member b of the mask t, ascending: the masks of
    b's products with T, read off b's column and row."""
    table, cols = s.table, columns(s)
    members = list(bits(t))
    for b in members:
        row, col = table[b], cols[b]
        tb = bt = 0
        for x in members:
            tb |= 1 << col[x]
            bt |= 1 << row[x]
        yield b, tb, bt


def _multiples(s: OrderedSemigroup) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The masks of S*a and of a*S for every a: ``_products`` over S, cached."""

    def build():
        _, left, right = zip(*_products(s, full_mask(s)))
        return left, right

    return s._cache.get("multiples") or _cached(s, "multiples", build)


def left_multiples(s: OrderedSemigroup) -> tuple[int, ...]:
    """The mask of S*a for every a."""
    return _multiples(s)[0]


def right_multiples(s: OrderedSemigroup) -> tuple[int, ...]:
    """The mask of a*S for every a."""
    return _multiples(s)[1]


def down_multiples(s: OrderedSemigroup) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The masks of (Sa] for every a, and of (aS] for every a."""

    def build():
        below = below_masks(s)
        return tuple(
            tuple(_union(below, m) for m in multiples(s))
            for multiples in (left_multiples, right_multiples)
        )

    return s._cache.get("down_multiples") or _cached(s, "down_multiples", build)


def sandwich_mask(s: OrderedSemigroup, x: int, y: int) -> int:
    """Mask of x*S*y."""
    return product_mask(s, right_multiples(s)[x], 1 << y)


def _require_elements(s: FiniteSemigroup, *elements: int) -> None:
    """Raise a ValueError for an element argument that is not an index of
    the carrier (``_elements``)."""
    _elements(elements, s.size, "element")


def _require_mask(s: FiniteSemigroup, mask: int) -> int:
    """The mask as an int (``integers``) that holds only elements of the
    carrier: the one check of every subset passed in from outside.  A mask
    that is negative or past the carrier is a ValueError naming it."""
    (mask,) = integers([mask], "mask")
    if not 0 <= mask < 1 << s.size:
        raise ValueError(f"mask {mask} is not a subset of the carrier 0..{s.size - 1}")
    return mask


# ---------------------------------------------------------------------------
# public set operators


def down_closure(s: OrderedSemigroup, x: int) -> int:
    """The mask of (X] = {t : t <= h for some h in X}.  Extensive, monotone,
    idempotent."""
    return down_mask(s, _require_mask(s, x))


def induced_substructure(s: OrderedSemigroup, t: int) -> OrderedSemigroup:
    """The ordered semigroup on a product-closed subset T, given by its mask.

    The result carries the restricted table and order; closures computed in
    the returned structure range over T only.  Element i of the result is
    the i-th smallest member of T.
    """
    t = _require_mask(s, t)
    if not t:
        raise EmptySet("substructure carrier")
    members = list(bits(t))
    for a in members:
        row = s.table[a]
        for b in members:
            if not (t >> row[b]) & 1:
                raise NotClosed(a, b)
    return _relabel(s, members)


def _relabel(s: FiniteSemigroup, members) -> FiniteSemigroup:
    """The structure of s's type whose element i is ``members[i]``, with
    table, order and names carried over.  The caller guarantees that the
    members are distinct and closed under the product."""
    index = {m: i for i, m in enumerate(members)}
    table = tuple(tuple(index[s.table[a][b]] for b in members) for a in members)
    names = tuple(s.names[m] for m in members) if s.names else None
    if not isinstance(s, OrderedSemigroup):
        return FiniteSemigroup(len(members), table, names)
    leq = tuple(tuple(s.leq[a][b] for b in members) for a in members)
    return OrderedSemigroup(len(members), table, names, leq=leq)
