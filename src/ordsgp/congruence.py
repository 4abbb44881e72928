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
from .core import ElementSet, OrderedSemigroup, _cached, bits, down_mask
from .elements import REGULAR, forall_exists
from .errors import (
    InvariantViolation,
    NotCompleteSemilattice,
    NotClosedClass,
    NotPartition,
    UnknownTheorem,
)
from .ideals import EquivalenceRelation, Side, green_relation, n_relation
from .report import (
    BundleResult,
    ConditionGroup,
    ConditionResult,
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
    class_types: tuple


def decompose(
    s: OrderedSemigroup, rho: EquivalenceRelation, classify_classes: bool = True
) -> Decomposition:
    """Split S along a complete semilattice congruence.

    Builds the quotient semilattice Y with its order, verifies the four
    decomposition conditions verbatim, and (optionally) classifies each
    class as an induced substructure.
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

    qtable = [[-1] * k for _ in range(k)]
    for alpha in range(k):
        for beta in range(k):
            target = -1
            for x in rho.classes[alpha]:
                row = table[x]
                for y in rho.classes[beta]:
                    cid = ids[row[y]]
                    if target < 0:
                        target = cid
                    elif cid != target:
                        raise NotClosedClass(alpha, beta)
            qtable[alpha][beta] = target
    qtable = tuple(tuple(row) for row in qtable)

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
    c1 = ConditionResult("classes are pairwise disjoint", True)
    for alpha in range(k):
        for beta in range(alpha + 1, k):
            if masks[alpha] & masks[beta]:
                c1 = ConditionResult("classes are pairwise disjoint", False, (alpha, beta))

    union = 0
    for m in masks:
        union |= m
    c2 = ConditionResult(
        "classes cover the carrier",
        union == (1 << s.size) - 1,
        None if union == (1 << s.size) - 1 else (next(bits(~union & ((1 << s.size) - 1))),),
    )

    c3 = ConditionResult("S_a * S_b inside S_{ab}", True)
    for alpha in range(k):
        for beta in range(k):
            target = masks[qtable[alpha][beta]]
            for x in bits(masks[alpha]):
                row = table[x]
                for y in bits(masks[beta]):
                    if not (target >> row[y]) & 1:
                        c3 = ConditionResult(
                            "S_a * S_b inside S_{ab}", False, (alpha, beta, x, y)
                        )

    c4 = ConditionResult("S_b meets (S_a] only when b <= a", True)
    for alpha in range(k):
        down_alpha = down_mask(s, masks[alpha])
        for beta in range(k):
            if masks[beta] & down_alpha and not qorder[beta][alpha]:
                c4 = ConditionResult(
                    "S_b meets (S_a] only when b <= a", False, (alpha, beta)
                )

    if classify_classes:
        from .classification import classify
        from .core import induced_substructure

        class_types = tuple(
            classify(induced_substructure(s, cls_set)) for cls_set in rho.classes
        )
    else:
        class_types = tuple(None for _ in range(k))

    return Decomposition(rho, k, qtable, qorder, (c1, c2, c3, c4), class_types)


# ---------------------------------------------------------------------------
# structure theorems


def _exists_csc_with_classes(s, check) -> tuple[bool, tuple | None]:
    for rel in complete_semilattice_congruences(s):
        if all(check(cls_set.mask) for cls_set in rel.classes):
            return True, tuple(rel.class_ids)
    return False, None


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
    cr = forall_exists(s, *COMPLETELY_REGULAR)
    j = green_relation(s, "J")
    least = least_csc(s)
    c1 = (j.class_ids == least.class_ids, None)
    props = relation_properties(s, j)
    c2 = (props.complete_semilattice, props.counterexamples.get("complete_semilattice"))
    return make_bundle(
        "CR-LEASTCSC",
        (
            ConditionResult("completely regular", cr[0], cr[1]),
            ConditionResult("J equals the least complete semilattice congruence", *c1),
            ConditionResult("J is a complete semilattice congruence", *c2),
        ),
        (ConditionGroup("implication", (0, 1, 2)),),
    )


def _check_cr_csdecomp(s) -> BundleResult:
    cr = forall_exists(s, *COMPLETELY_REGULAR)
    exists, detail = _exists_csc_with_classes(s, _is_completely_simple_class(s))
    return make_bundle(
        "CR-CSDECOMP",
        (
            ConditionResult("completely regular", cr[0], cr[1]),
            ConditionResult(
                "some complete semilattice congruence has completely simple classes",
                exists,
                detail,
            ),
        ),
    )


def _check_cr_hclass_gl(s) -> BundleResult:
    cr = forall_exists(s, *COMPLETELY_REGULAR)
    h = green_relation(s, "H")
    closed_ok, closed_ce, _ = _classes_all(h, lambda m: _closed(s, m))
    gl_ok, gl_ce, _ = _classes_all(h, _is_group_like_class(s))

    # inside each H-class, every a admits h in the class with
    # a <= aha, a <= a^2 h, a <= h a^2
    table, leq = s.table, s.leq
    wit_ok, wit_ce = True, None
    if closed_ok:
        for cls_set in h.classes:
            for a in cls_set:
                aa = table[a][a]
                la = leq[a]
                good = any(
                    la[table[table[a][hh]][a]]
                    and la[table[aa][hh]]
                    and la[table[hh][aa]]
                    for hh in cls_set
                )
                if not good:
                    wit_ok, wit_ce = False, (a,)
                    break
            if not wit_ok:
                break
    else:
        wit_ok, wit_ce = False, closed_ce

    return make_bundle(
        "CR-HCLASS-GL",
        (
            ConditionResult("completely regular", cr[0], cr[1]),
            ConditionResult("every H-class is product-closed", closed_ok, closed_ce),
            ConditionResult("every H-class is a group like ordered subsemigroup", gl_ok, gl_ce),
            ConditionResult(
                "every a has h in its H-class with a <= aha, a <= a^2 h, a <= h a^2",
                wit_ok,
                wit_ce,
            ),
        ),
        (ConditionGroup("implication", (0, 1, 2, 3)),),
    )


def _check_cl_decomp(s) -> BundleResult:
    cliff = _regular_then(s, _clifford)
    least = least_csc(s)
    via_least = _classes_all(least, _is_group_like_class(s))
    via_exists = _exists_csc_with_classes(s, _is_group_like_class(s))
    j = green_relation(s, "J")
    h = green_relation(s, "H")
    jh = (j.class_ids == h.class_ids, None)
    return make_bundle(
        "CL-DECOMP",
        (
            ConditionResult("regular with the clifford condition", cliff[0], cliff[1]),
            ConditionResult(
                "every least-congruence class is group like", via_least[0], via_least[1]
            ),
            ConditionResult(
                "some complete semilattice congruence has group like classes",
                via_exists[0],
                via_exists[1],
            ),
            ConditionResult("J = H", jh[0], jh[1]),
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
    lcl = _regular_then(s, _left_clifford)
    regular, reg_ce, _ = forall_exists(s, *REGULAR)
    if not regular:
        side2, detail = False, reg_ce
    else:
        lrel = green_relation(s, "L")
        props = relation_properties(s, lrel)
        least = least_csc(s)
        side2 = props.complete_semilattice and lrel.class_ids == least.class_ids
        detail = None if side2 else props.counterexamples.get("complete_semilattice")
    return make_bundle(
        "LCL-LEASTCSC",
        (
            ConditionResult("regular with the left clifford condition", lcl[0], lcl[1]),
            ConditionResult(
                "regular, and L is the least complete semilattice congruence",
                side2,
                detail,
            ),
        ),
    )


def _check_lcl_decomp(s) -> BundleResult:
    lcl = _regular_then(s, _left_clifford)
    via_exists = _exists_csc_with_classes(s, _is_left_group_like_class(s))
    via_least = _classes_all(least_csc(s), _is_left_group_like_class(s))
    return make_bundle(
        "LCL-DECOMP",
        (
            ConditionResult("regular with the left clifford condition", lcl[0], lcl[1]),
            ConditionResult(
                "some complete semilattice congruence has left group like classes",
                via_exists[0],
                via_exists[1],
            ),
            ConditionResult(
                "every least-congruence class is left group like",
                via_least[0],
                via_least[1],
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
