"""The power construction: nonempty subsets of a finite semigroup under
setwise product and inclusion, plus its universal extension property.

For a finite semigroup F the structure P(F) has carrier all nonempty
subsets of F ordered by inclusion and multiplied setwise.  Any semigroup
map f from F into a structure S whose pairs all have least upper bounds
extends to phi(A) = join of f-images, and phi composed with the singleton
embedding recovers f.  The extension's morphism laws are verified, not
assumed: joins in an arbitrary target need not distribute over products,
and a failure raises NotMorphism.

Unordered properties of F (group, left group, completely regular) are
decided by definition-level brute force, never by reusing the ordered
machinery, so each power-correspondence check keeps its two sides
independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import limits
from .classification import COMPLETELY_REGULAR, LEFT_GROUP_LIKE, _regular_then, _simple
from .core import (
    FiniteSemigroup,
    OrderedSemigroup,
    above_masks,
    bits,
    validate_structure,
)
from .elements import forall_exists
from .errors import NoJoin, NotMorphism, UnknownPredicate
from .ideals import Side
from .report import ConditionResult, make_bundle


@dataclass(frozen=True)
class SemigroupMorphism:
    """A product-respecting map; order-respecting when the source is ordered."""

    source: FiniteSemigroup | OrderedSemigroup
    target: OrderedSemigroup
    mapping: tuple[int, ...]

    def apply(self, i: int) -> int:
        return self.mapping[i]


def semigroup_morphism(source, target, mapping) -> SemigroupMorphism:
    mapping = tuple(int(v) for v in mapping)
    if len(mapping) != source.size:
        raise ValueError("mapping must cover the whole source")
    for v in mapping:
        if not 0 <= v < target.size:
            raise ValueError(f"mapping value {v} outside the target")
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


def _subset_carrier(n: int) -> list[tuple[int, ...]]:
    """Nonempty subsets of 0..n-1, sorted by size then lexicographically."""
    out = []
    for k in range(1, n + 1):
        out.extend(combinations(range(n), k))
    return out


def power_ordered_semigroup(f: FiniteSemigroup) -> OrderedSemigroup:
    """All nonempty subsets of F under setwise product and inclusion."""
    limits.check("power", f.size)
    subsets = _subset_carrier(f.size)
    index = {c: i for i, c in enumerate(subsets)}
    table = []
    for a in subsets:
        row = []
        for b in subsets:
            prod = sorted({f.table[x][y] for x in a for y in b})
            row.append(index[tuple(prod)])
        table.append(tuple(row))
    pairs = []
    sets = [frozenset(c) for c in subsets]
    for i, si in enumerate(sets):
        for j, sj in enumerate(sets):
            if i != j and si < sj:
                pairs.append((i, j))
    names = tuple(
        "{" + ",".join(f.name_of(x) for x in c) + "}" for c in subsets
    )
    return validate_structure(len(subsets), tuple(table), pairs, names)


def join(s: OrderedSemigroup, a: int, b: int) -> int:
    """Least upper bound of a and b in the order, if it exists."""
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
    subsets = _subset_carrier(f_sg.size)
    phi = tuple(
        join_all(s, (f.mapping[x] for x in c)) for c in subsets
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
    n = f.size
    return all(
        any(f.word(a, a, x, a, a) == a for x in range(n)) for a in range(n)
    )


_UNORDERED = {
    "t_simple": (is_group, "F is a group"),
    "left_group_like": (is_left_group, "F is a left group"),
    "completely_regular": (
        is_completely_regular_semigroup,
        "F is a completely regular semigroup",
    ),
}


def power_correspondence_check(f: FiniteSemigroup, property_name: str):
    """Compare an unordered property of F with its ordered counterpart on P(F)."""
    entry = _UNORDERED.get(property_name)
    if entry is None:
        raise UnknownPredicate(property_name)
    decider, label = entry
    unordered = decider(f)

    p = power_ordered_semigroup(f)
    if property_name == "t_simple":
        ok = _simple(p, Side.LEFT)[0] and _simple(p, Side.RIGHT)[0]
        ordered = (ok, None if ok else ())
    elif property_name == "left_group_like":
        ordered = _regular_then(p, forall_exists, *LEFT_GROUP_LIKE)
    else:
        ordered = forall_exists(p, *COMPLETELY_REGULAR)

    return make_bundle(
        f"POWER-{property_name}",
        (
            ConditionResult(label, unordered),
            ConditionResult(
                f"the power structure is {property_name}", ordered[0], ordered[1] or None
            ),
        ),
    )
