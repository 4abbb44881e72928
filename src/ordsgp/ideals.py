"""Ideals, Green's relations, filters, and the filter-equality relation.

Principal ideals include their generator, ({a} u Sa] and friends, so they
are defined on every structure, not only regular ones.  Green's relations
partition the carrier by equality of principal ideals; H is the common
refinement of L and R.

A filter is a subsemigroup F that is prime (a*b in F forces a in F and
b in F) and upward closed (c in F and c <= x force x in F).  N(a) is the
least filter containing a, and equality of principal filters gives the
least complete semilattice congruence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from . import limits
from .core import (
    ElementSet,
    OrderedSemigroup,
    _cached,
    _require_bound,
    bits,
    down_mask,
    full_mask,
    left_multiples,
    mask_of,
    right_multiples,
    sandwich_mask,
    up_mask,
)
from .elements import REGULAR, forall_exists, idempotent_mask
from .errors import EmptySet, NotIdempotent, NotRegular
from .report import ConditionGroup, ConditionResult, make_bundle


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"
    TWO_SIDED = "two-sided"


@dataclass(frozen=True)
class EquivalenceRelation:
    """A partition of the carrier in restricted-growth (first-appearance) form."""

    structure: OrderedSemigroup
    class_ids: tuple[int, ...]
    classes: tuple[ElementSet, ...]

    @classmethod
    def from_class_ids(cls, s: OrderedSemigroup, ids) -> "EquivalenceRelation":
        ids = tuple(ids)
        if len(ids) != s.size:
            raise ValueError("one class id per element required")
        relabel: dict[int, int] = {}
        canon = []
        for x in ids:
            if x not in relabel:
                relabel[x] = len(relabel)
            canon.append(relabel[x])
        masks = [0] * len(relabel)
        for elem, cid in enumerate(canon):
            masks[cid] |= 1 << elem
        classes = tuple(ElementSet(s, m) for m in masks)
        return cls(s, tuple(canon), classes)

    @classmethod
    def from_keys(cls, s: OrderedSemigroup, keys) -> "EquivalenceRelation":
        """Partition by equality of per-element keys."""
        seen: dict = {}
        ids = []
        for key in keys:
            if key not in seen:
                seen[key] = len(seen)
            ids.append(seen[key])
        return cls.from_class_ids(s, ids)

    def same(self, a: int, b: int) -> bool:
        return self.class_ids[a] == self.class_ids[b]

    def num_classes(self) -> int:
        return len(self.classes)

    def refines(self, other: "EquivalenceRelation") -> bool:
        """True when every class of self lies inside a class of other."""
        for cls_set in self.classes:
            ids = {other.class_ids[m] for m in cls_set}
            if len(ids) > 1:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = " | ".join(
            ",".join(str(m) for m in cls_set) for cls_set in self.classes
        )
        return f"EquivalenceRelation({body})"


@dataclass(frozen=True)
class IdealCheck:
    holds: bool
    reason: str = ""
    violation: tuple | None = None

    def __bool__(self) -> bool:
        return self.holds


def _principal_mask_in(s: OrderedSemigroup, t: int, a: int, side: Side) -> int:
    """The principal ideal of a inside the carrier mask t.

    left: ({a} u Ta]   right: ({a} u aT]   two-sided: ({a} u Ta u aT u TaT],
    each intersected with T; with T the carrier, the principal ideal of S.
    """
    table = s.table
    seed = 1 << a
    if side in (Side.LEFT, Side.TWO_SIDED):
        for x in bits(t):
            seed |= 1 << table[x][a]
    if side in (Side.RIGHT, Side.TWO_SIDED):
        row = table[a]
        for x in bits(t):
            seed |= 1 << row[x]
    if side is Side.TWO_SIDED:
        for x in bits(t):
            row = table[table[x][a]]
            for y in bits(t):
                seed |= 1 << row[y]
    return down_mask(s, seed) & t


def _principal_masks(s: OrderedSemigroup, side: Side) -> tuple[int, ...]:
    full = full_mask(s)
    return _cached(
        s,
        f"principal_{side.value}",
        lambda: tuple(_principal_mask_in(s, full, a, side) for a in range(s.size)),
    )


def principal_ideal(s: OrderedSemigroup, a: int, side: Side) -> ElementSet:
    """The smallest ideal of the given side containing a.

    left: ({a} u Sa]   right: ({a} u aS]   two-sided: ({a} u Sa u aS u SaS]
    """
    if not 0 <= a < s.size:
        raise ValueError(f"element {a} out of range")
    return ElementSet(s, _principal_masks(s, side)[a])


def is_ideal(s: OrderedSemigroup, iset: ElementSet, side: Side) -> IdealCheck:
    """Absorption on the given side plus downward closure, with counterexample."""
    _require_bound(s, iset)
    if not iset.mask:
        raise EmptySet("ideal")
    imask = iset.mask
    table = s.table
    if side in (Side.LEFT, Side.TWO_SIDED):
        for x in range(s.size):
            row = table[x]
            for i in bits(imask):
                if not (imask >> row[i]) & 1:
                    return IdealCheck(False, "left absorption fails", (x, i))
    if side in (Side.RIGHT, Side.TWO_SIDED):
        for i in bits(imask):
            row = table[i]
            for x in range(s.size):
                if not (imask >> row[x]) & 1:
                    return IdealCheck(False, "right absorption fails", (i, x))
    closed = down_mask(s, imask)
    if closed != imask:
        t = next(bits(closed & ~imask))
        i = next(i for i in bits(imask) if s.leq[t][i])
        return IdealCheck(False, "not downward closed", (t, i))
    return IdealCheck(True)


def enumerate_ideals(s: OrderedSemigroup, side: Side) -> list[ElementSet]:
    """All nonempty ideals of the given side, ascending by size then members."""
    limits.check("ideals", s.size)
    found = []
    for k in range(1, s.size + 1):
        for combo in combinations(range(s.size), k):
            candidate = ElementSet(s, mask_of(combo))
            if is_ideal(s, candidate, side):
                found.append(candidate)
    return found


_GREEN_SIDES = {"L": Side.LEFT, "R": Side.RIGHT, "J": Side.TWO_SIDED}


def green_relation(s: OrderedSemigroup, kind: str) -> EquivalenceRelation:
    """Green's relation L, R, J (principal-ideal equality) or H (= L meet R)."""
    store = _cached(s, "green", dict)
    rel = store.get(kind)
    if rel is not None:
        return rel
    if kind in _GREEN_SIDES:
        masks = _principal_masks(s, _GREEN_SIDES[kind])
        rel = EquivalenceRelation.from_keys(s, masks)
    elif kind == "H":
        lrel = green_relation(s, "L")
        rrel = green_relation(s, "R")
        rel = EquivalenceRelation.from_keys(
            s, zip(lrel.class_ids, rrel.class_ids)
        )
    else:
        raise ValueError(f"unknown Green relation kind: {kind!r}")
    store[kind] = rel
    return rel


def _filter_masks(s: OrderedSemigroup) -> tuple[int, ...]:
    def build():
        n = s.size
        table = s.table
        out = []
        for a in range(n):
            mask = 1 << a
            while True:
                new = mask
                # upward closure
                new |= up_mask(s, new)
                # subsemigroup: products of members stay inside
                for x in bits(mask):
                    row = table[x]
                    for y in bits(mask):
                        new |= 1 << row[y]
                # prime: a product inside pulls both factors inside
                for x in range(n):
                    row = table[x]
                    for y in range(n):
                        if (new >> row[y]) & 1:
                            new |= (1 << x) | (1 << y)
                if new == mask:
                    break
                mask = new
            out.append(mask)
        return tuple(out)

    return _cached(s, "filters", build)


def principal_filter(s: OrderedSemigroup, a: int) -> ElementSet:
    """N(a): the least filter containing a."""
    if not 0 <= a < s.size:
        raise ValueError(f"element {a} out of range")
    return ElementSet(s, _filter_masks(s)[a])


def n_relation(s: OrderedSemigroup) -> EquivalenceRelation:
    """Partition by equality of principal filters."""

    def build():
        return EquivalenceRelation.from_keys(s, _filter_masks(s))

    return _cached(s, "n_relation", build)


def idempotent_ideal_identities(s: OrderedSemigroup, e: int, f: int):
    """Three downward-closure identities tying ideals to ordered idempotents.

    On a regular structure, for every left ideal L, right ideal R and
    ordered idempotents e, f:

        (eL] = L n (eS]      (Re] = R n (Se]      (Sf] n (eS] = (eSf]

    Returns a claim-mode BundleResult with the first counterexample per
    identity.
    """
    regular, counterexample, _ = forall_exists(s, *REGULAR)
    if not regular:
        raise NotRegular(counterexample[0])
    idem = idempotent_mask(s)
    if not (idem >> e) & 1:
        raise NotIdempotent(e)
    if not (idem >> f) & 1:
        raise NotIdempotent(f)

    table = s.table
    eS = down_mask(s, right_multiples(s, e))
    Se = down_mask(s, left_multiples(s, e))
    Sf = down_mask(s, left_multiples(s, f))

    holds1, detail1 = True, None
    for lideal in enumerate_ideals(s, Side.LEFT):
        eL = down_mask(s, mask_of(table[e][x] for x in lideal))
        want = lideal.mask & eS
        if eL != want:
            holds1 = False
            detail1 = (tuple(lideal), next(bits(eL ^ want)))
            break

    holds2, detail2 = True, None
    for rideal in enumerate_ideals(s, Side.RIGHT):
        Re = down_mask(s, mask_of(table[x][e] for x in rideal))
        want = rideal.mask & Se
        if Re != want:
            holds2 = False
            detail2 = (tuple(rideal), next(bits(Re ^ want)))
            break

    eSf = down_mask(s, sandwich_mask(s, e, f))
    want3 = Sf & eS
    holds3 = eSf == want3
    detail3 = None if holds3 else (next(bits(eSf ^ want3)),)

    conditions = (
        ConditionResult("(eL] = L n (eS] for every left ideal L", holds1, detail1),
        ConditionResult("(Re] = R n (Se] for every right ideal R", holds2, detail2),
        ConditionResult("(Sf] n (eS] = (eSf]", holds3, detail3),
    )
    return make_bundle(
        f"IDEAL-IDENTITIES(e={e},f={f})",
        conditions,
        (ConditionGroup("claim", (0, 1, 2)),),
    )
