"""Ideals, Green's relations, filters, and the filter-equality relation.

Principal ideals include their generator, ({a} u Sa] and friends, so they
are defined on every structure, not only regular ones.  All of them are
built at once from the cached multiples Sa and aS (``core._products`` over
S); ``classification._simple``, which stops at the first proper one,
builds them from the same products one element at a time.  Green's
relations partition the carrier by equality of principal ideals; H is the
common refinement of L and R.  An ideal is returned as its mask.  An
equivalence relation is its class ids, numbered by first appearance
whatever per-element ids it is given, and its class masks are read from
them; it holds no structure, so the relations cached on a structure keep
no reference back to it.  A side argument must be a Side member; anything
else is a ValueError naming it.

A filter is a subsemigroup F that is prime (a*b in F forces a in F and
b in F) and upward closed (c in F and c <= x force x in F).  N(a) is the
least filter containing a, and equality of principal filters gives the
least complete semilattice congruence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import product
from operator import or_

from . import limits
from .core import (
    OrderedSemigroup,
    _cached,
    _require_elements,
    _union,
    above_masks,
    below_masks,
    bits,
    columns,
    down_mask,
    down_multiples,
    left_multiples,
    product_mask,
    right_multiples,
    sandwich_mask,
)
from .elements import REGULAR, carrier_scan, first_failure, idempotent_mask
from .errors import NotIdempotent, NotRegular
from .report import ConditionGroup, _cond, make_bundle


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"
    TWO_SIDED = "two-sided"


def _require_side(side) -> None:
    """Raise a ValueError naming a side argument that is not a Side member;
    a value string such as "left" is refused too."""
    if not isinstance(side, Side):
        raise ValueError(f"side must be a Side, got {side!r}")


def _first_appearance(values) -> tuple[int, ...]:
    """Number the distinct values 0, 1, ... in the order of their first appearance."""
    numbers: dict = {}
    # from a list, so the tuple is allocated at its exact size
    return tuple([numbers.setdefault(v, len(numbers)) for v in values])


@dataclass(frozen=True)
class EquivalenceRelation:
    """The partition of a carrier by equality of per-element ids, which may
    be any hashable values.  The constructor numbers them by first
    appearance (restricted-growth form), so ``class_ids`` is the one record
    of the partition; ``masks``, the class masks, is derived from it on
    first read.  A relation holds no structure: its carrier is the indices
    0..len(class_ids)-1, and a relation cached on a structure keeps no
    reference back to it."""

    class_ids: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "class_ids", _first_appearance(self.class_ids))

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """The class masks, in the order of their ids."""
        masks = [0] * self.num_classes()
        for elem, cid in enumerate(self.class_ids):
            masks[cid] |= 1 << elem
        return tuple(masks)

    def same(self, a: int, b: int) -> bool:
        return self.class_ids[a] == self.class_ids[b]

    def num_classes(self) -> int:
        return max(self.class_ids) + 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = " | ".join(",".join(map(str, bits(m))) for m in self.masks)
        return f"EquivalenceRelation({body})"


def _principal_masks(s: OrderedSemigroup, side: Side) -> tuple[int, ...]:
    """Every principal ideal of the side, from the cached multiples: (a] u
    (Sa], (a] u (aS], and for two-sided also (SaS], with SaS the union of
    xS over x in Sa, under one down-closure."""

    def build():
        below = below_masks(s)
        sa, as_ = down_multiples(s)
        if side is Side.LEFT:
            return tuple(map(or_, below, sa))
        if side is Side.RIGHT:
            return tuple(map(or_, below, as_))
        sas = (_union(right_multiples(s), m) for m in left_multiples(s))
        return tuple(b | l | r | down_mask(s, m) for b, l, r, m in zip(below, sa, as_, sas))

    return _cached(s, ("principal", side), build)


def enumerate_ideals(s: OrderedSemigroup, side: Side) -> list[int]:
    """The masks of all nonempty ideals of the given side, ascending by
    size then members.

    Every nonempty ideal is the union of the principal ideals of its
    members, and every union of ideals is an ideal, so the ideals are the
    union-closure of the n principal ideals.
    """
    _require_side(side)
    limits.check("ideals", s.size)
    found: set[int] = set()
    for p in _principal_masks(s, side):
        found |= {p} | {m | p for m in found}
    return sorted(found, key=lambda m: (m.bit_count(), tuple(bits(m))))


_GREEN_SIDES = {"L": Side.LEFT, "R": Side.RIGHT, "J": Side.TWO_SIDED}


def green_relation(s: OrderedSemigroup, kind: str) -> EquivalenceRelation:
    """Green's relation L, R, J (principal-ideal equality) or H (= L meet R)."""
    return s._cache.get(("green", kind)) or _cached(s, ("green", kind), lambda: _green(s, kind))


def _green(s: OrderedSemigroup, kind: str) -> EquivalenceRelation:
    if kind in _GREEN_SIDES:
        return EquivalenceRelation(_principal_masks(s, _GREEN_SIDES[kind]))
    if kind == "H":
        lrel, rrel = green_relation(s, "L"), green_relation(s, "R")
        return EquivalenceRelation(zip(lrel.class_ids, rrel.class_ids))
    raise ValueError(f"unknown Green relation kind: {kind!r}")


def _filter_masks(s: OrderedSemigroup) -> tuple[int, ...]:
    """N(a) for every a, each from a worklist: an element joins once, and
    brings in its up-set (upward closure), its factors (primeness) and its
    products with the members so far, itself included (subsemigroup).
    The worklist keeps its own product loop rather than ``core._products``:
    it multiplies by a set that grows one member at a time, so each new
    member's products are taken with the members so far."""

    def build():
        table, cols, above = s.table, columns(s), above_masks(s)
        # factors[z]: every x and y with x*y = z
        factors = [0] * s.size
        for x, row in enumerate(table):
            for y, z in enumerate(row):
                factors[z] |= (1 << x) | (1 << y)
        out = []
        for a in range(s.size):
            mask, pending = 0, 1 << a
            while pending:
                low = pending & -pending
                z = low.bit_length() - 1
                mask |= low
                row, col = table[z], cols[z]
                new = above[z] | factors[z]
                for m in bits(mask):
                    new |= 1 << row[m] | 1 << col[m]
                pending = (pending | new) & ~mask
            out.append(mask)
        return tuple(out)

    return _cached(s, "filters", build)


def n_relation(s: OrderedSemigroup) -> EquivalenceRelation:
    """Partition by equality of principal filters."""

    def build():
        return EquivalenceRelation(_filter_masks(s))

    return _cached(s, "n_relation", build)


def idempotent_ideal_identities(s: OrderedSemigroup, e: int, f: int):
    """Three downward-closure identities tying ideals to ordered idempotents.

    On a regular structure, for every left ideal L, right ideal R and
    ordered idempotents e, f:

        (eL] = L n (eS]      (Re] = R n (Se]      (Sf] n (eS] = (eSf]

    Returns a claim-mode BundleResult with the first counterexample per
    identity.
    """
    _require_elements(s, e, f)
    regular, counterexample, _ = carrier_scan(s, REGULAR)
    if not regular:
        raise NotRegular(counterexample[0])
    idem = idempotent_mask(s)
    if not (idem >> e) & 1:
        raise NotIdempotent(e)
    if not (idem >> f) & 1:
        raise NotIdempotent(f)

    n = s.size
    Sa, aS = down_multiples(s)
    eS, Se, Sf = aS[e], Sa[e], Sa[f]

    def identity(side, image, other):
        # (image of I] = I n other for every ideal I of the side; a failure
        # is I and the least element of the difference
        diff = {
            tuple(bits(ideal)): down_mask(s, image(ideal)) ^ (ideal & other)
            for ideal in enumerate_ideals(s, side)
        }
        return first_failure(product(diff, range(n)), lambda i, x: not (diff[i] >> x) & 1)

    sandwich = down_mask(s, sandwich_mask(s, e, f)) ^ (Sf & eS)
    return make_bundle(
        f"IDEAL-IDENTITIES(e={e},f={f})",
        (
            _cond(
                "(eL] = L n (eS] for every left ideal L",
                identity(Side.LEFT, lambda m: product_mask(s, 1 << e, m), eS),
            ),
            _cond(
                "(Re] = R n (Se] for every right ideal R",
                identity(Side.RIGHT, lambda m: product_mask(s, m, 1 << e), Se),
            ),
            _cond(
                "(Sf] n (eS] = (eSf]",
                first_failure(((x,) for x in range(n)), lambda x: not (sandwich >> x) & 1),
            ),
        ),
        (ConditionGroup("claim", (0, 1, 2)),),
    )
