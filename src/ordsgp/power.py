"""The power construction: nonempty subsets of a finite semigroup under
setwise product and inclusion, plus its universal extension property.

For a finite semigroup F the structure P(F) has carrier all nonempty
subsets of F ordered by inclusion and multiplied setwise.  Any semigroup
map f from F into a structure S whose pairs all have least upper bounds
extends to phi(A) = join of f-images, and phi composed with the singleton
embedding recovers f.  The extension's morphism laws are verified, not
assumed: joins in an arbitrary target need not distribute over products,
and a failure raises NotMorphism.

P(F)'s table is built a row at a time, taking subsets in ascending mask
order, from unions alone.  In a singleton row, {a}*B = {a}*(B - {b}) | {ab}
with b least in B, an entry built before it; the row of A = {a} + R with a
least in A is the element-wise union of the rows of R and of {a}, both
built before it.  The carrier, its positions, the inclusion order and the
display names depend only on |F| (and F's names), so they are computed
once per size, the order certified by ``core._partial_order`` (with its
covers) and the names checked once.  Every table is then validated like
any input: associativity on every triple, a row at a time, and
compatibility of the inclusion order on its covers.

Consecutive calls on one F share a single build and validation of P(F),
while the size guard runs on every call.

Unordered properties of F (group, left group, completely regular) are
decided by definition-level brute force, never by reusing the ordered
machinery, so each power-correspondence check keeps its two sides
independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import or_

from . import limits
from .classification import COMPLETELY_REGULAR, LEFT_GROUP_LIKE, _regular_then, _simple
from .core import (
    CertifiedOrder,
    FiniteSemigroup,
    OrderedSemigroup,
    _check_names,
    _elements,
    _ordered,
    _partial_order,
    _require_elements,
    above_masks,
    bits,
    mask_of,
    validate_semigroup,
)
from .elements import forall_exists
from .errors import NoJoin, NotMorphism, UnknownPredicate
from .ideals import Side
from .report import ConditionResult, _cond, make_bundle


@dataclass(frozen=True)
class SemigroupMorphism:
    """A product-respecting map; order-respecting when the source is ordered."""

    source: FiniteSemigroup
    target: OrderedSemigroup
    mapping: tuple[int, ...]


def semigroup_morphism(source, target, mapping) -> SemigroupMorphism:
    mapping = _elements(mapping, target.size, "mapping")
    if len(mapping) != source.size:
        raise ValueError("mapping must cover the whole source")
    for x in range(source.size):
        for y in range(source.size):
            if mapping[source.table[x][y]] != target.table[mapping[x]][mapping[y]]:
                raise NotMorphism(x, y)
    if isinstance(source, OrderedSemigroup):
        for x in range(source.size):
            for y in range(source.size):
                if source.leq[x][y] and not target.leq[mapping[x]][mapping[y]]:
                    raise NotMorphism(x, y, "order")
    return SemigroupMorphism(source, target, mapping)


@lru_cache(maxsize=None)
def _inclusion(n: int) -> tuple[tuple[int, ...], tuple[int, ...], CertifiedOrder]:
    """P(F)'s carrier, positions and order for |F| = n: the masks of the
    nonempty subsets of 0..n-1, sorted by size then lexicographically, the
    carrier position of each subset mask, and the order whose pairs (i, j),
    i != j, have the i-th subset inside the j-th, certified by
    ``core._partial_order``; its covers are the pairs with one element
    more in the j-th subset."""
    subsets = tuple(mask_of(c) for k in range(1, n + 1) for c in combinations(range(n), k))
    position = [0] * (1 << n)
    for i, m in enumerate(subsets):
        position[m] = i
    pairs = tuple(
        (i, j)
        for i, a in enumerate(subsets)
        for j, b in enumerate(subsets)
        if i != j and a & ~b == 0
    )
    return subsets, tuple(position), _partial_order(len(subsets), pairs, False)


# keyed by F's display names, which are None for every enumerated F
@lru_cache(maxsize=8)
def _subset_names(n: int, names: tuple[str, ...] | None) -> tuple[str, ...]:
    """P(F)'s display names, ``{x,y}`` from F's names or indices, checked
    by ``core._check_names``."""
    element = names or tuple(map(str, range(n)))
    subsets = _inclusion(n)[0]
    shown = ("{" + ",".join(element[x] for x in bits(c)) + "}" for c in subsets)
    return _check_names(len(subsets), shown)


def power_ordered_semigroup(f: FiniteSemigroup) -> OrderedSemigroup:
    """All nonempty subsets of F under setwise product and inclusion."""
    limits.check("power", f.size)
    return _power_structure(f)


# One entry, keyed by F: the three correspondences of one F share a build,
# but a long run over many F never holds more than one P(F) and its caches.
# Callers share the result, which is safe: it is frozen and its _cache holds
# only values derived from it.  The guard above stays outside, so it is
# checked on a hit too.
@lru_cache(maxsize=1)
def _power_structure(f: FiniteSemigroup) -> OrderedSemigroup:
    n = f.size
    subsets, position, inclusion = _inclusion(n)
    # rows[A][B] is the mask of A*B, A and B in ascending mask order, each
    # entry the union of two earlier ones, with a least in A and b least in
    # B: {a}*B = {a}*(B - {b}) | {ab}, and A*B = (A - {a})*B | {a}*B
    full = 1 << n
    rows = [None] * full
    for m in range(1, full):
        low = m & -m
        if m == low:
            ta, row = f.table[low.bit_length() - 1], [0] * full
            for b in range(1, full):
                row[b] = row[b & b - 1] | 1 << ta[(b & -b).bit_length() - 1]
            rows[m] = row
        else:
            rows[m] = list(map(or_, rows[m ^ low], rows[low]))
    table = tuple(tuple(position[rows[a][b]] for b in subsets) for a in subsets)
    power = validate_semigroup(len(subsets), table)
    return _ordered(power, inclusion, _subset_names(n, f.names))


def join(s: OrderedSemigroup, a: int, b: int) -> int:
    """Least upper bound of a and b in the order, if it exists."""
    _require_elements(s, a, b)
    above = above_masks(s)
    ubs = above[a] & above[b]
    for z in bits(ubs):
        if above[z] & ubs == ubs:
            return z
    raise NoJoin(a, b)


def join_all(s: OrderedSemigroup, elems) -> int:
    it = iter(elems)
    acc = next(it)
    for x in it:
        acc = join(s, acc, x)
    return acc


def universal_extension(
    f_sg: FiniteSemigroup, s: OrderedSemigroup, f: SemigroupMorphism
) -> SemigroupMorphism:
    """Extend f : F -> S to the subsets of F via joins of images.

    Requires every pair in S to have a least upper bound (checked; raises
    NoJoin otherwise) and f to respect products (NotMorphism otherwise).
    The returned map phi satisfies phi({x}) = f(x) and respects both the
    product and the inclusion order; these laws are re-verified on the
    result.
    """
    if f.source != f_sg or f.target != s:
        raise ValueError("morphism endpoints do not match the given structures")
    # re-verify f and the join premise up front so failures are attributable
    semigroup_morphism(f_sg, s, f.mapping)
    for a in range(s.size):
        for b in range(a, s.size):
            join(s, a, b)

    power = power_ordered_semigroup(f_sg)
    phi = tuple(
        join_all(s, (f.mapping[x] for x in bits(c))) for c in _inclusion(f_sg.size)[0]
    )
    extension = semigroup_morphism(power, s, phi)
    # singletons are the first |F| carrier members, so phi({x}) = phi[x]
    for x in range(f_sg.size):
        if phi[x] != f.mapping[x]:
            raise NotMorphism(x, x)
    return extension


# ---------------------------------------------------------------------------
# unordered property deciders, by definition-level brute force


def is_group(f: FiniteSemigroup) -> bool:
    """Unique solvability of x*a = b and a*y = b for all a, b."""
    n = f.size
    table = f.table
    for a in range(n):
        for b in range(n):
            if sum(1 for x in range(n) if table[x][a] == b) != 1:
                return False
            if sum(1 for y in range(n) if table[a][y] == b) != 1:
                return False
    return True


def _sg_regular(f: FiniteSemigroup) -> bool:
    n, table = f.size, f.table
    return all(
        any(table[table[a][x]][a] == a for x in range(n)) for a in range(n)
    )


def _sg_left_simple(f: FiniteSemigroup) -> bool:
    n, table = f.size, f.table
    full = frozenset(range(n))
    return all(
        frozenset(table[x][a] for x in range(n)) | {a} == full for a in range(n)
    )


def is_left_group(f: FiniteSemigroup) -> bool:
    """Regular and left simple."""
    return _sg_regular(f) and _sg_left_simple(f)


def is_completely_regular_semigroup(f: FiniteSemigroup) -> bool:
    """Every a solves a = a*a*x*a*a."""
    n, table = f.size, f.table
    return all(
        any(table[table[row[a]][x]][row[a]] == a for x in range(n))
        for a, row in enumerate(table)
    )


# property -> (decider on F, its label, decider on P(F))
_CORRESPONDENCES = {
    "t_simple": (
        is_group,
        "F is a group",
        lambda p: (_simple(p, Side.LEFT)[0] and _simple(p, Side.RIGHT)[0], None, {}),
    ),
    "left_group_like": (
        is_left_group,
        "F is a left group",
        lambda p: _regular_then(p, forall_exists, *LEFT_GROUP_LIKE),
    ),
    "completely_regular": (
        is_completely_regular_semigroup,
        "F is a completely regular semigroup",
        lambda p: forall_exists(p, *COMPLETELY_REGULAR),
    ),
}


def power_correspondence_check(f: FiniteSemigroup, property_name: str):
    """Compare an unordered property of F with its ordered counterpart on P(F)."""
    if property_name not in _CORRESPONDENCES:
        raise UnknownPredicate(property_name)
    unordered, label, ordered = _CORRESPONDENCES[property_name]
    return make_bundle(
        f"POWER-{property_name}",
        (
            ConditionResult(label, unordered(f)),
            _cond(f"the power structure is {property_name}", ordered(power_ordered_semigroup(f))),
        ),
    )
