"""Carrier-wide element kernels: the mask of the ordered idempotents
(e <= e*e), each element's mask of ordered inverses, the group component
around an ordered idempotent, and the quantified condition specs, among
them REGULAR, the package's one definition of regularity.  Facts about
single elements are read off these masks and scans; there is no
per-element analysis.

It also holds the two scans that conditions are built on.  Both return the
triple (holds, least counterexample, witnesses):

- ``witness_scan``: at each argument tuple, for each term, the least x in
  the carrier with lhs <= left*x*right, where either factor may be
  absent.  Candidates are tried in ascending index order, so every
  reported witness is the least one.
- ``first_failure``: the first argument tuple at which a predicate fails;
  its witness map is always empty.

Argument tuples are given in ascending order (lexicographic unless a
condition says otherwise), so a failure reports the least failing tuple.
Each term has its own witness.  Where one witness must satisfy several
inequalities at once (the z of ``group_component``, CR-INV's ordered
inverse, the h of CR-HCLASS-GL) the search is an ``any`` over the
candidates, inside a ``first_failure`` predicate when it is a condition.
The principal-ideal comparisons of ``classification`` keep short loops of
their own that return the same triple in the same ascending order, and
its class tests decide a subset from its members' one-sided products.

``carrier_scan`` keeps one result per structure and named spec: the scan
without witnesses, which several checks state as the same condition.  A
scan that returns witnesses runs on every call, and no condition reads
the result of a different condition.
"""

from __future__ import annotations

from itertools import product

from .core import OrderedSemigroup, _cached, _require_elements, columns, mask_of
from .errors import NotIdempotent


def idempotent_mask(s: OrderedSemigroup) -> int:
    return s._cache.get("idempotents") or _cached(
        s, "idempotents", lambda: mask_of(e for e in range(s.size) if s.leq[e][s.table[e][e]])
    )


# Quantified conditions as (arity, terms): for every argument tuple,
# terms(table, *args) lists inequalities (lhs, left, right), each asking for
# a witness x with lhs <= left*x*right.  REGULAR is the package's one
# definition of regularity.
REGULAR = (1, lambda tb, a: ((a, a, a),))  # a in (aSa]
COMPLETELY_REGULAR = (1, lambda tb, a: ((a, tb[a][a], tb[a][a]),))  # a in (a^2 S a^2]
H_COMMUTATIVE = (2, lambda tb, a, b: ((tb[a][b], b, a),))  # ab <= b*x*a


def witness_scan(s: OrderedSemigroup, args, terms, witnesses=False):
    """Every term has a least witness at every argument tuple.

    ``args`` yields argument tuples in ascending order; ``terms(table,
    *args)`` lists that tuple's inequalities (lhs, left, right), each asking
    for x with lhs <= left*x*right, where a None factor is absent.  The
    candidate witnesses are the carrier, in ascending order.  Returns
    (holds, first failing tuple, witnesses); the witness map, from each
    tuple to its least witness per term, is filled only when requested.
    """
    table, leq, cols = s.table, s.leq, columns(s)
    xs = range(s.size)
    wits = {}
    for argt in args:
        found = []
        for lhs, left, right in terms(table, *argt):
            above = leq[lhs]
            row = xs if left is None else table[left]
            col = xs if right is None else cols[right]
            for x in xs:
                if above[col[row[x]]]:
                    found.append(x)
                    break
            else:
                return False, argt, {}
        if witnesses:
            wits[argt] = tuple(found)
    return True, None, wits


def forall_exists(s: OrderedSemigroup, arity: int, terms, witnesses=False):
    """``witness_scan`` over every tuple in S^arity."""
    return witness_scan(s, product(range(s.size), repeat=arity), terms, witnesses)


def carrier_scan(s: OrderedSemigroup, spec):
    """``forall_exists`` of a named (arity, terms) spec, without witnesses,
    once per structure: the result is kept in the structure's cache under
    the spec.  A scan that returns witnesses is never kept."""
    return s._cache.get(spec) or _cached(s, spec, lambda: forall_exists(s, *spec))


def first_failure(args, ok):
    """The first argument tuple (in the order given) for which ok fails."""
    for argt in args:
        if not ok(*argt):
            return False, argt, {}
    return True, None, {}


def _then(first, rest, *args):
    """``first``, and only once it holds, ``rest(*args)``."""
    return rest(*args) if first[0] else first


def is_regular_structure(s: OrderedSemigroup) -> bool:
    """Every element is regular."""
    return carrier_scan(s, REGULAR)[0]


def inverse_mask(s: OrderedSemigroup, a: int) -> int:
    """Mask of the ordered inverses of a: b with a <= aba and b <= bab."""

    def build():
        table, leq = s.table, s.leq
        return tuple(
            mask_of(
                b
                for b in range(s.size)
                if leq[e][table[table[e][b]][e]] and leq[b][table[table[b][e]][b]]
            )
            for e in range(s.size)
        )

    return _cached(s, "inverse_masks", build)[a]


def group_component(s: OrderedSemigroup, e: int) -> int:
    """The mask of G_e = {a : a <= ea, a <= ae, and e <= za, e <= az for
    one z}."""
    _require_elements(s, e)
    if not (idempotent_mask(s) >> e) & 1:
        raise NotIdempotent(e)
    table, leq = s.table, s.leq
    le = leq[e]
    return mask_of(
        a
        for a in range(s.size)
        if leq[a][table[e][a]]
        and leq[a][table[a][e]]
        and any(le[table[z][a]] and le[table[a][z]] for z in range(s.size))
    )
