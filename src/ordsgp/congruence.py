"""Congruence predicates, the least complete semilattice congruence, and
complete-semilattice decompositions.

A semilattice congruence is a congruence with a ~ a*a and a*b ~ b*a; it is
complete when a <= b forces a ~ a*b.  Decomposing by such a congruence
produces a semilattice Y of classes ordered by beta <= alpha iff
beta*alpha = beta in Y, and four conditions are verified verbatim:
disjointness, cover, S_alpha * S_beta inside S_{alpha beta}, and the
linkage S_beta meets (S_alpha] only when beta <= alpha.

The `structure_theorem_check` registry turns each decomposition theorem
into an executable agreement check over independently computed sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator

from . import limits
from .classification import (
    COMPLETELY_REGULAR,
    LEFT_GROUP_LIKE,
    _classes_all,
    _clifford,
    _closed,
    _group_like_subsemigroup,
    _left_clifford,
    _regular_then,
    _simple,
)
from .core import OrderedSemigroup, _cached, bits, down_mask
from .elements import REGULAR, _then, first_failure, forall_exists
from .errors import (
    InvariantViolation,
    NotCompleteSemilattice,
    NotPartition,
    UnknownTheorem,
)
from .ideals import EquivalenceRelation, Side, green_relation, n_relation
from .report import (
    BundleResult,
    ConditionGroup,
    ConditionResult,
    _cond,
    make_bundle,
)


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
    ids = rho.class_ids
    if len(ids) != s.size:
        raise NotPartition("class ids do not cover the carrier")
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


def complete_semilattice_congruences(s: OrderedSemigroup) -> list[EquivalenceRelation]:
    """Every complete semilattice congruence, by exhaustive partition scan."""

    def build():
        found = []
        for rgs in enumerate_partitions(s.size):
            rel = EquivalenceRelation.from_class_ids(s, rgs)
            if relation_properties(s, rel).complete_semilattice:
                found.append(rel)
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


# ---------------------------------------------------------------------------
# structure theorems


def _exists_csc_with_classes(s, check):
    """Some complete semilattice congruence has only classes passing check;
    the detail is the first such congruence's class ids."""
    for rel in complete_semilattice_congruences(s):
        if all(check(cls_set.mask) for cls_set in rel.classes):
            return True, tuple(rel.class_ids), {}
    return False, None, {}


def _is_group_like_class(s):
    return lambda mask: _group_like_subsemigroup(s, mask)


def _is_left_group_like_class(s):
    return lambda mask: (
        _closed(s, mask)
        and forall_exists(s, *REGULAR, mask)[0]
        and forall_exists(s, *LEFT_GROUP_LIKE, mask)[0]
    )


def _is_completely_simple_class(s):
    return lambda mask: (
        _closed(s, mask)
        and _simple(s, Side.TWO_SIDED, mask)[0]
        and forall_exists(s, *COMPLETELY_REGULAR, mask)[0]
    )


def _check_cr_leastcsc(s) -> BundleResult:
    j = green_relation(s, "J")
    props = relation_properties(s, j)
    return make_bundle(
        "CR-LEASTCSC",
        (
            _cond("completely regular", forall_exists(s, *COMPLETELY_REGULAR)),
            ConditionResult(
                "J equals the least complete semilattice congruence",
                j.class_ids == least_csc(s).class_ids,
            ),
            ConditionResult(
                "J is a complete semilattice congruence",
                props.complete_semilattice,
                props.counterexamples.get("complete_semilattice"),
            ),
        ),
        (ConditionGroup("implication", (0, 1, 2)),),
    )


def _check_cr_csdecomp(s) -> BundleResult:
    return make_bundle(
        "CR-CSDECOMP",
        (
            _cond("completely regular", forall_exists(s, *COMPLETELY_REGULAR)),
            _cond(
                "some complete semilattice congruence has completely simple classes",
                _exists_csc_with_classes(s, _is_completely_simple_class(s)),
            ),
        ),
    )


def _check_cr_hclass_gl(s) -> BundleResult:
    h = green_relation(s, "H")
    closed = _classes_all(h, lambda m: _closed(s, m))
    table, leq = s.table, s.leq

    def has_h(a):  # one h in a's H-class with a <= aha, a <= a^2 h, a <= h a^2
        aa, la = table[a][a], leq[a]
        return any(
            la[table[table[a][x]][a]] and la[table[aa][x]] and la[table[x][aa]]
            for x in h.classes[h.class_ids[a]]
        )

    return make_bundle(
        "CR-HCLASS-GL",
        (
            _cond("completely regular", forall_exists(s, *COMPLETELY_REGULAR)),
            _cond("every H-class is product-closed", closed),
            _cond(
                "every H-class is a group like ordered subsemigroup",
                _classes_all(h, _is_group_like_class(s)),
            ),
            _cond(
                "every a has h in its H-class with a <= aha, a <= a^2 h, a <= h a^2",
                _then(
                    closed,
                    first_failure,
                    ((a,) for cls_set in h.classes for a in cls_set),
                    has_h,
                ),
            ),
        ),
        (ConditionGroup("implication", (0, 1, 2, 3)),),
    )


def _check_cl_decomp(s) -> BundleResult:
    return make_bundle(
        "CL-DECOMP",
        (
            _cond("regular with the clifford condition", _regular_then(s, _clifford)),
            _cond(
                "every least-congruence class is group like",
                _classes_all(least_csc(s), _is_group_like_class(s)),
            ),
            _cond(
                "some complete semilattice congruence has group like classes",
                _exists_csc_with_classes(s, _is_group_like_class(s)),
            ),
            ConditionResult(
                "J = H",
                green_relation(s, "J").class_ids == green_relation(s, "H").class_ids,
            ),
        ),
        (
            ConditionGroup("equivalence", (0, 1, 2)),
            ConditionGroup("implication", (0, 3)),
        ),
    )


def _check_lcl_leastcsc(s) -> BundleResult:
    # "L is the least csc" alone does not force regularity (the order can
    # make every principal left ideal full on a non-regular structure), so
    # the ambient regularity of the left clifford notion is conjoined to
    # both sides.
    def l_is_least():
        lrel = green_relation(s, "L")
        props = relation_properties(s, lrel)
        holds = props.complete_semilattice and lrel.class_ids == least_csc(s).class_ids
        return holds, None if holds else props.counterexamples.get("complete_semilattice"), {}

    return make_bundle(
        "LCL-LEASTCSC",
        (
            _cond(
                "regular with the left clifford condition",
                _regular_then(s, _left_clifford),
            ),
            _cond(
                "regular, and L is the least complete semilattice congruence",
                _then(forall_exists(s, *REGULAR), l_is_least),
            ),
        ),
    )


def _check_lcl_decomp(s) -> BundleResult:
    return make_bundle(
        "LCL-DECOMP",
        (
            _cond(
                "regular with the left clifford condition",
                _regular_then(s, _left_clifford),
            ),
            _cond(
                "some complete semilattice congruence has left group like classes",
                _exists_csc_with_classes(s, _is_left_group_like_class(s)),
            ),
            _cond(
                "every least-congruence class is left group like",
                _classes_all(least_csc(s), _is_left_group_like_class(s)),
            ),
        ),
        (
            ConditionGroup("equivalence", (0, 1)),
            ConditionGroup("implication", (0, 2)),
        ),
    )


THEOREMS = {
    "CR-LEASTCSC": _check_cr_leastcsc,
    "CR-CSDECOMP": _check_cr_csdecomp,
    "CR-HCLASS-GL": _check_cr_hclass_gl,
    "CL-DECOMP": _check_cl_decomp,
    "LCL-LEASTCSC": _check_lcl_leastcsc,
    "LCL-DECOMP": _check_lcl_decomp,
}

THEOREM_ORDER = tuple(THEOREMS)


def structure_theorem_check(s: OrderedSemigroup, theorem_id: str) -> BundleResult:
    """Evaluate one structure theorem; both sides computed independently."""
    fn = THEOREMS.get(theorem_id)
    if fn is None:
        raise UnknownTheorem(theorem_id)
    return fn(s)
