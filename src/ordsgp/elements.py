"""Per-element analysis: ordered idempotency, regularity variants, ordered
inverses, commutation witnesses, and the group component around an ordered
idempotent.

Every "there is x" in the package goes through one primitive,
``witness_scan``: at each argument tuple, for each term, the least x in a
carrier mask T with lhs <= left*x*right, where either factor may be absent.
Candidates are tried in ascending index order, so every reported witness is
the least one, and argument tuples are taken in ascending lexicographic
order, so a failure reports the least failing tuple.  A condition is its
argument tuples plus a terms function; it shares no result with any other
condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .core import ElementSet, OrderedSemigroup, _cached, bits
from .errors import InvariantViolation, NotIdempotent


@dataclass(frozen=True)
class ElementRegularity:
    """Regularity flags for one element, with least witnesses.

    regular             a in (aSa]
    completely_regular  a in (a^2 S a^2]
    left_regular        a in (S a^2]
    right_regular       a in (a^2 S]

    ``witnesses`` maps each true flag to the least x realising it, e.g.
    a <= a*x*a for the "regular" entry.
    """

    element: int
    regular: bool
    completely_regular: bool
    left_regular: bool
    right_regular: bool
    witnesses: dict


def idempotent_mask(s: OrderedSemigroup) -> int:
    def build():
        table, leq = s.table, s.leq
        mask = 0
        for e in range(s.size):
            if leq[e][table[e][e]]:
                mask |= 1 << e
        return mask

    return _cached(s, "idempotents", build)


def ordered_idempotents(s: OrderedSemigroup) -> ElementSet:
    """All e with e <= e*e."""
    return ElementSet(s, idempotent_mask(s))


# Quantified conditions as (arity, terms): for every argument tuple,
# terms(table, *args) lists inequalities (lhs, left, right), each asking for
# a witness x with lhs <= left*x*right.  The element specs name the flags
# above; REGULAR is the package's one definition of regularity.
REGULAR = (1, lambda tb, a: ((a, a, a),))  # a in (aSa]
COMPLETELY_REGULAR = (1, lambda tb, a: ((a, tb[a][a], tb[a][a]),))  # a in (a^2 S a^2]
LEFT_REGULAR = (1, lambda tb, a: ((a, None, tb[a][a]),))  # a in (S a^2]
RIGHT_REGULAR = (1, lambda tb, a: ((a, tb[a][a], None),))  # a in (a^2 S]
H_COMMUTATIVE = (2, lambda tb, a, b: ((tb[a][b], b, a),))  # ab <= b*x*a

_FLAG_SPECS = (
    ("regular", REGULAR),
    ("completely_regular", COMPLETELY_REGULAR),
    ("left_regular", LEFT_REGULAR),
    ("right_regular", RIGHT_REGULAR),
)


def witness_scan(s: OrderedSemigroup, args, terms, xs=None, witnesses=False):
    """Every term has a least witness at every argument tuple.

    ``args`` yields argument tuples in ascending order; ``terms(table,
    *args)`` lists that tuple's inequalities (lhs, left, right), each asking
    for x with lhs <= left*x*right, where a None factor is absent.  ``xs``
    lists the candidate witnesses in ascending order (None: the carrier).
    Returns (holds, first failing tuple, witnesses); the witness map, from
    each tuple to its least witness per term, is filled only when requested.
    """
    table, leq = s.table, s.leq
    columns = _cached(s, "columns", lambda: tuple(zip(*table)))
    same = range(s.size)
    xs = same if xs is None else xs
    wits = {}
    for argt in args:
        found = []
        for lhs, left, right in terms(table, *argt):
            above = leq[lhs]
            row = same if left is None else table[left]
            col = same if right is None else columns[right]
            for x in xs:
                if above[col[row[x]]]:
                    found.append(x)
                    break
            else:
                return False, argt, {}
        if witnesses:
            wits[argt] = tuple(found)
    return True, None, wits


def forall_exists(s: OrderedSemigroup, arity: int, terms, t=None, witnesses=False):
    """``witness_scan`` over every tuple in T^arity with witnesses in T.

    T is the carrier mask t, or the whole carrier when t is None.
    """
    xs = range(s.size) if t is None else tuple(bits(t))
    return witness_scan(s, product(xs, repeat=arity), terms, xs, witnesses)


def is_regular_structure(s: OrderedSemigroup) -> bool:
    """Every element is regular (cached per structure)."""
    return _cached(s, "regular", lambda: forall_exists(s, *REGULAR)[0])


def element_regularity(s: OrderedSemigroup, a: int) -> ElementRegularity:
    witnesses = {}
    for flag, (_, terms) in _FLAG_SPECS:
        holds, _, found = witness_scan(s, ((a,),), terms, None, True)
        if holds:
            witnesses[flag] = found[(a,)][0]
    regular, completely_regular, left_regular, right_regular = (
        flag in witnesses for flag, _ in _FLAG_SPECS
    )
    if completely_regular and not (regular and left_regular and right_regular):
        raise InvariantViolation(
            f"element {a}: completely regular without the implied flags"
        )
    return ElementRegularity(
        a, regular, completely_regular, left_regular, right_regular, witnesses
    )


def inverse_mask(s: OrderedSemigroup, a: int) -> int:
    """Mask of the ordered inverses of a: b with a <= aba and b <= bab."""

    def build():
        table, leq = s.table, s.leq
        out = []
        for e in range(s.size):
            le = leq[e]
            row = table[e]
            mask = 0
            for b in range(s.size):
                eb = row[b]
                if le[table[eb][e]] and leq[b][table[table[b][e]][b]]:
                    mask |= 1 << b
            out.append(mask)
        return tuple(out)

    return _cached(s, "inverse_masks", build)[a]


def inverses_of(s: OrderedSemigroup, a: int) -> ElementSet:
    return ElementSet(s, inverse_mask(s, a))


def h_commute_witness(s: OrderedSemigroup, a: int, b: int) -> int | None:
    """Least x with a*b <= b*x*a, or None."""
    holds, _, found = witness_scan(s, ((a, b),), H_COMMUTATIVE[1], None, True)
    return found[(a, b)][0] if holds else None


def group_component_mask(
    s: OrderedSemigroup, e: int, shared_witness: bool = True
) -> int:
    table, leq = s.table, s.leq
    row_e = table[e]
    le = leq[e]
    mask = 0
    for a in range(s.size):
        if not (leq[a][row_e[a]] and leq[a][table[a][e]]):
            continue
        row_a = table[a]
        if shared_witness:
            ok = any(
                le[table[z][a]] and le[row_a[z]] for z in range(s.size)
            )
        else:
            ok = any(le[table[z][a]] for z in range(s.size)) and any(
                le[row_a[z]] for z in range(s.size)
            )
        if ok:
            mask |= 1 << a
    return mask


def group_component(
    s: OrderedSemigroup, e: int, shared_witness: bool = True
) -> ElementSet:
    """G_e = {a : a <= ea, a <= ae, and e <= za, e <= az for some z}.

    The two existentials share a single z by default; ``shared_witness=False``
    allows independent witnesses for comparison.
    """
    if not (idempotent_mask(s) >> e) & 1:
        raise NotIdempotent(e)
    return ElementSet(s, group_component_mask(s, e, shared_witness))
