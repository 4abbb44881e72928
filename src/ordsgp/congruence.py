"""Congruence predicates, the least complete semilattice congruence, and
complete-semilattice decompositions.

A semilattice congruence is a congruence with a ~ a*a and a*b ~ b*a; it is
complete when a <= b forces a ~ a*b.  Every complete semilattice
congruence contains the congruence G that these pairs generate, and an
equivalence that contains G meets the semilattice and completeness axioms
by containing it; it is a congruence of S exactly when the partition it
makes of the G-classes is a congruence of the quotient S/G.  So the
complete semilattice congruences are found on S/G alone, and
``relation_properties`` judges the relations that come from elsewhere,
such as Green's J and L.  Decomposing by such a congruence produces a
semilattice Y of classes ordered by beta <= alpha iff beta*alpha = beta in
Y, and four conditions are verified verbatim:
disjointness, cover, S_alpha * S_beta inside S_{alpha beta}, and the
linkage S_beta meets (S_alpha] only when beta <= alpha.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator

from . import limits
from .core import OrderedSemigroup, _cached, bits, columns, down_mask, integers
from .elements import _then, first_failure
from .errors import InvariantViolation, NotCompleteSemilattice, NotPartition
from .ideals import EquivalenceRelation, _first_appearance, _require_on, n_relation
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
    """The congruence flags of rho, each failed one with its least
    counterexample.

    Each axiom is one ``first_failure`` scan, in ascending order: left and
    right compatibility (c*a ~ c*b and a*c ~ b*c) over the triples
    (a, b, c) with a < b in one class; a ~ a*a over (a, a) and, once that
    holds, a*b ~ b*a over a < b; completeness, a ~ a*b, over the pairs
    a <= b with a != b.  A scan that fails names its tuple under its flag
    even where a flag it builds on has failed too.  A relation on another
    structure, or whose ids do not number the classes of the carrier by
    first appearance (``EquivalenceRelation.from_class_ids`` renumbers),
    is one NotPartition.
    """
    _require_on(s, rho)
    if len(rho.class_ids) != s.size:
        raise NotPartition("class ids do not cover the carrier")
    if _first_appearance(rho.class_ids) != tuple(rho.class_ids):
        raise NotPartition("class ids are not numbered by first appearance")
    ids, tb, n = rho.class_ids, s.table, s.size
    same = [(a, b, c) for a, b in combinations(range(n), 2) if ids[a] == ids[b] for c in range(n)]
    scans = {
        "left_congruence": first_failure(same, lambda a, b, c: ids[tb[c][a]] == ids[tb[c][b]]),
        "right_congruence": first_failure(same, lambda a, b, c: ids[tb[a][c]] == ids[tb[b][c]]),
        "semilattice": _then(
            first_failure(((a, a) for a in range(n)), lambda a, _: ids[a] == ids[tb[a][a]]),
            first_failure,
            combinations(range(n), 2),
            lambda a, b: ids[tb[a][b]] == ids[tb[b][a]],
        ),
        "complete_semilattice": first_failure(
            s.order_pairs(), lambda a, b: ids[a] == ids[tb[a][b]]
        ),
    }
    left, right, band, complete = (holds for holds, _, _ in scans.values())
    flags = (left, right, left and right, left and right and band)
    found = {flag: least for flag, (holds, least, _) in scans.items() if not holds}
    return RelationProperties(*flags, flags[3] and complete, found)


def least_csc(s: OrderedSemigroup) -> EquivalenceRelation:
    """The least complete semilattice congruence (filter-equality relation)."""
    return n_relation(s)


def enumerate_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of 0..n-1 as restricted-growth strings, lexicographic;
    none for n = 0.  An n that is not an integer or is negative is a
    ValueError naming it."""
    (n,) = integers([n], "n")
    if n < 0:
        raise ValueError(f"n must be at least 0, got {n}")
    limits.check("partitions", n)
    if n:
        yield from _extensions([0], 1, n)


def _extensions(prefix: list[int], used: int, n: int) -> Iterator[tuple[int, ...]]:
    """The restricted-growth strings of length n that extend ``prefix``,
    whose greatest value is ``used - 1``, in lexicographic order.  A
    module-level generator: a call leaves no self-referencing closure
    behind for the cyclic collector."""
    if len(prefix) == n:
        yield tuple(prefix)
        return
    for v in range(used + 1):
        prefix.append(v)
        yield from _extensions(prefix, max(used, v + 1), n)
        prefix.pop()


def _generated_congruence_ids(s: OrderedSemigroup) -> tuple[int, ...]:
    """Class ids, by first appearance, of the congruence G generated by the
    pairs (a, a*a), (a*b, b*a) and (a, a*b) for a <= b.

    Every complete semilattice congruence contains these pairs, so it is a
    coarsening of G.  G is computed from the table and the order alone, as
    a union-find forest whose roots are the least elements of their
    classes: each pair that joins two classes brings in the pairs
    (c*x, c*y) and (x*c, y*c) of the two roots x and y for every c.
    """
    n = s.size
    table, leq, cols = s.table, s.leq, columns(s)
    parent = list(range(n))
    todo = [(a, table[a][b]) for a in range(n) for b in range(n) if a == b or leq[a][b]]
    todo += [(table[a][b], table[b][a]) for a, b in combinations(range(n), 2)]
    while todo:
        x, y = todo.pop()
        while parent[x] != x:  # the roots, halving the paths to them
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x != y:
            if x > y:
                x, y = y, x
            parent[y] = x
            todo += zip(cols[x], cols[y])
            todo += zip(table[x], table[y])
    for x in range(n):  # every element points at its root, which is least
        parent[x] = parent[parent[x]]
    return _first_appearance(parent)


def _quotient_table(s: OrderedSemigroup, ids) -> tuple[tuple[int, ...], ...]:
    """The table of the classes 0..k-1 of a congruence given by its class
    ids: the product of two classes is the class of the product of their
    least elements."""
    reps = [ids.index(c) for c in range(max(ids) + 1)]
    table = s.table
    return tuple(tuple(ids[table[x][y]] for y in reps) for x in reps)


def complete_semilattice_congruences(s: OrderedSemigroup) -> list[EquivalenceRelation]:
    """Every complete semilattice congruence, in lexicographic
    restricted-growth order.

    Every one is a coarsening of the generated congruence G
    (``_generated_congruence_ids``), and a relation rho that contains G
    holds (a, a*a), (a*b, b*a) and (a, a*b) for a <= b, so it is a
    semilattice congruence and complete as soon as it is a congruence.
    It is a congruence of S exactly when rho/G is a congruence of the
    quotient Y = S/G.  So the scan runs over the partitions of Y's k
    classes and keeps one exactly when, for classes alpha < beta in one
    block and every gamma, alpha*gamma and beta*gamma lie in one block; Y
    is commutative, so one side is enough.  G's classes are numbered in
    the order of their least elements, so the congruences come in the
    order of a scan of every partition of the carrier.  The
    ``partitions`` guard bounds k.
    """

    def build():
        g = _generated_congruence_ids(s)
        y = _quotient_table(s, g)
        # alpha < beta with the cells (alpha*gamma, beta*gamma) of every gamma
        rows = [(a, b, tuple(zip(y[a], y[b]))) for a, b in combinations(range(len(y)), 2)]
        return [
            EquivalenceRelation.from_class_ids(s, [rgs[c] for c in g])
            for rgs in enumerate_partitions(len(y))
            if all(rgs[p] == rgs[q] for a, b, cells in rows if rgs[a] == rgs[b] for p, q in cells)
        ]

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
    is the class of the product of their least elements
    (``_quotient_table``): rho is a congruence, so every product of the two
    classes lies in that class, which the third condition checks.
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

    k = rho.num_classes()
    table = s.table
    qtable = _quotient_table(s, rho.class_ids)

    qorder = tuple(
        tuple(qtable[alpha][beta] == alpha for beta in range(k)) for alpha in range(k)
    )
    for alpha in range(k):
        if not qorder[alpha][alpha]:
            raise InvariantViolation("quotient order is not reflexive")
        for beta in range(k):
            if alpha != beta and qorder[alpha][beta] and qorder[beta][alpha]:
                raise InvariantViolation("quotient order is not antisymmetric")

    masks = rho.masks
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
