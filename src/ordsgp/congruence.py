"""Congruence predicates, the least complete semilattice congruence, and
complete-semilattice decompositions.

A semilattice congruence is a congruence with a ~ a*a and a*b ~ b*a; it is
complete when a <= b forces a ~ a*b.  Decomposing by such a congruence
produces a semilattice Y of classes ordered by beta <= alpha iff
beta*alpha = beta in Y, and four conditions are verified verbatim:
disjointness, cover, S_alpha * S_beta inside S_{alpha beta}, and the
linkage S_beta meets (S_alpha] only when beta <= alpha.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator

from . import limits
from .core import OrderedSemigroup, _cached, bits, down_mask
from .elements import first_failure
from .errors import InvariantViolation, NotCompleteSemilattice, NotPartition
from .ideals import EquivalenceRelation, _first_appearance, n_relation
from .report import ConditionResult, _cond


@dataclass(frozen=True)
class RelationProperties:
    """Congruence flags for one equivalence relation, with counterexamples.

    The composite flags build on each other: ``congruence`` requires both
    one-sided flags, ``semilattice`` additionally a ~ a*a and a*b ~ b*a,
    ``complete_semilattice`` additionally a <= b => a ~ a*b.
    """

    left_congruence: bool
    right_congruence: bool
    congruence: bool
    semilattice: bool
    complete_semilattice: bool
    counterexamples: dict


def relation_properties(s: OrderedSemigroup, rho: EquivalenceRelation) -> RelationProperties:
    if rho.structure is not s and rho.structure != s:
        raise NotPartition("relation is bound to a different structure")
    if len(rho.class_ids) != s.size:
        raise NotPartition("class ids do not cover the carrier")
    return _properties(s, rho.class_ids)


def _properties(s: OrderedSemigroup, ids) -> RelationProperties:
    """``relation_properties`` of the partition with one class id per element."""
    table = s.table
    n = s.size
    ces: dict = {}

    left = True
    right = True
    for a in range(n):
        for b in range(a + 1, n):
            if ids[a] != ids[b]:
                continue
            for c in range(n):
                if left and ids[table[c][a]] != ids[table[c][b]]:
                    left = False
                    ces["left_congruence"] = (a, b, c)
                if right and ids[table[a][c]] != ids[table[b][c]]:
                    right = False
                    ces["right_congruence"] = (a, b, c)
            if not (left or right):
                break
    congruence = left and right

    band = True
    for a in range(n):
        if ids[a] != ids[table[a][a]]:
            band = False
            ces["semilattice"] = (a, a)
            break
    if band:
        for a in range(n):
            for b in range(n):
                if ids[table[a][b]] != ids[table[b][a]]:
                    band = False
                    ces["semilattice"] = (a, b)
                    break
            if not band:
                break
    semilattice = congruence and band

    complete_part = True
    for a in range(n):
        for b in range(n):
            if a != b and s.leq[a][b] and ids[a] != ids[table[a][b]]:
                complete_part = False
                ces["complete_semilattice"] = (a, b)
                break
        if not complete_part:
            break
    complete = semilattice and complete_part

    return RelationProperties(left, right, congruence, semilattice, complete, ces)


def least_csc(s: OrderedSemigroup) -> EquivalenceRelation:
    """The least complete semilattice congruence (filter-equality relation)."""
    return n_relation(s)


def enumerate_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of 0..n-1 as restricted-growth strings, lexicographic."""
    limits.check("partitions", n)

    def rec(prefix: list[int], used: int):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for v in range(used + 1):
            prefix.append(v)
            yield from rec(prefix, max(used, v + 1))
            prefix.pop()

    yield from rec([0], 1) if n else iter(())


def _generated_congruence_ids(s: OrderedSemigroup) -> tuple[int, ...]:
    """Class ids, by first appearance, of the congruence G generated by the
    pairs (a, a*a), (a*b, b*a) and (a, a*b) for a <= b.

    Every complete semilattice congruence contains these pairs, so it is a
    coarsening of G.  G is computed from the table and the order alone:
    merge the classes of each pair, then merge (c*x, c*r) and (x*c, r*c)
    for every x whose class has the least element r until nothing changes.
    """
    n = s.size
    table, leq = s.table, s.leq
    least = list(range(n))  # the least element of each element's class

    def merge(x, y):
        x, y = least[x], least[y]
        if x == y:
            return False
        lo, hi = min(x, y), max(x, y)
        least[:] = [lo if v == hi else v for v in least]
        return True

    for a in range(n):
        for b in range(n):
            if a == b or leq[a][b]:
                merge(a, table[a][b])
            if a < b:
                merge(table[a][b], table[b][a])
    changed = True
    while changed:
        changed = False
        for x in range(n):
            r = least[x]
            if r != x:
                for c in range(n):
                    changed |= merge(table[c][x], table[c][r]) | merge(table[x][c], table[r][c])
    return _first_appearance(least)


def complete_semilattice_congruences(s: OrderedSemigroup) -> list[EquivalenceRelation]:
    """Every complete semilattice congruence, in lexicographic
    restricted-growth order.

    The candidates are the coarsenings of the generated congruence G
    (``_generated_congruence_ids``), one per partition of its k classes;
    each candidate's class ids go through the loops of
    ``relation_properties``, and only a candidate that passes becomes an
    EquivalenceRelation.  G's classes are numbered in the order of their
    least elements, so the candidates come in the order of a scan of every
    partition of the carrier.  The ``partitions`` guard bounds k.
    """

    def build():
        g = _generated_congruence_ids(s)
        found = []
        for rgs in enumerate_partitions(max(g) + 1):
            ids = [rgs[c] for c in g]
            if _properties(s, ids).complete_semilattice:
                found.append(EquivalenceRelation.from_class_ids(s, ids))
        return found

    return list(_cached(s, "cscs", build))


@dataclass(frozen=True)
class Decomposition:
    """A complete-semilattice decomposition: quotient semilattice plus verdicts."""

    rho: EquivalenceRelation
    quotient_size: int
    quotient_table: tuple[tuple[int, ...], ...]
    quotient_order: tuple[tuple[bool, ...], ...]
    condition_verdicts: tuple[ConditionResult, ...]


def decompose(s: OrderedSemigroup, rho: EquivalenceRelation) -> Decomposition:
    """Split S along a complete semilattice congruence.

    Builds the quotient semilattice Y with its order and verifies the four
    decomposition conditions verbatim.  The quotient product of two classes
    is the class of the product of their least elements: rho is a
    congruence, so every product of the two classes lies in that class,
    which the third condition checks.
    """
    props = relation_properties(s, rho)
    for flag in (
        "left_congruence",
        "right_congruence",
        "semilattice",
        "complete_semilattice",
    ):
        if not getattr(props, flag):
            raise NotCompleteSemilattice(flag, props.counterexamples.get(flag))

    ids = rho.class_ids
    k = rho.num_classes()
    table = s.table

    reps = [next(iter(c)) for c in rho.classes]
    qtable = tuple(tuple(ids[table[x][y]] for y in reps) for x in reps)

    qorder = tuple(
        tuple(qtable[alpha][beta] == alpha for beta in range(k)) for alpha in range(k)
    )
    for alpha in range(k):
        if not qorder[alpha][alpha]:
            raise InvariantViolation("quotient order is not reflexive")
        for beta in range(k):
            if alpha != beta and qorder[alpha][beta] and qorder[beta][alpha]:
                raise InvariantViolation("quotient order is not antisymmetric")

    masks = [cls_set.mask for cls_set in rho.classes]
    union = 0
    for m in masks:
        union |= m
    downs = [down_mask(s, m) for m in masks]
    conditions = (
        _cond(
            "classes are pairwise disjoint",
            first_failure(combinations(range(k), 2), lambda a, b: not masks[a] & masks[b]),
        ),
        _cond(
            "classes cover the carrier",
            first_failure(((x,) for x in range(s.size)), lambda x: (union >> x) & 1),
        ),
        _cond(
            "S_a * S_b inside S_{ab}",
            first_failure(
                (
                    (alpha, beta, x, y)
                    for alpha, beta in product(range(k), repeat=2)
                    for x in bits(masks[alpha])
                    for y in bits(masks[beta])
                ),
                lambda alpha, beta, x, y: (masks[qtable[alpha][beta]] >> table[x][y]) & 1,
            ),
        ),
        _cond(
            "S_b meets (S_a] only when b <= a",
            first_failure(
                product(range(k), repeat=2),
                lambda alpha, beta: qorder[beta][alpha] or not masks[beta] & downs[alpha],
            ),
        ),
    )

    return Decomposition(rho, k, qtable, qorder, conditions)
