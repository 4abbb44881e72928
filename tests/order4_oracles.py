"""Brute-force oracles for complete semilattice congruences, ideals and
the order validator.

``csc_oracle`` scans all Bell(n) partitions of the carrier and
``ideal_oracle`` all 2^n subsets, each through the package's definition
checks.  The tier-1 tests compare the package with them on small orders.
Run as a script, this file compares them on every ordered semigroup of
order 4, and checks there that the congruence generated by the complete
semilattice axioms equals N, the filter-equality relation.  It also runs
every (table, poset) pair of order 4 through ``validate_structure`` and
compares the verdict and the ``NotCompatible`` witness with
``compatibility_oracle``, a scan of the definition, and the accepted pairs
with the orders ``_compatible_orders_flat`` lists for each table:

    PYTHONPATH=src python -X dev -W error tests/order4_oracles.py

It exits 1 at the first mismatch and prints the structure.  pytest does
not collect it: its name does not match ``test_*.py``.
"""

from __future__ import annotations

import sys
from itertools import combinations

from ordsgp import (
    ElementSet,
    EquivalenceRelation,
    Side,
    complete_semilattice_congruences,
    enumerate_ideals,
    enumerate_ordered_semigroups,
    enumerate_partitions,
    enumerate_semigroups,
    is_ideal,
    n_relation,
    relation_properties,
    serialize_document,
    validate_structure,
)
from ordsgp.congruence import _generated_congruence_ids
from ordsgp.core import leq_pairs, mask_of
from ordsgp.enumeration import _compatible_orders_flat, all_posets
from ordsgp.errors import NotCompatible


def csc_oracle(s) -> list[tuple[int, ...]]:
    """Class ids of every complete semilattice congruence, in the
    lexicographic restricted-growth order of a Bell(n) partition scan."""
    return [
        rgs
        for rgs in enumerate_partitions(s.size)
        if relation_properties(s, EquivalenceRelation.from_class_ids(s, rgs)).complete_semilattice
    ]


def ideal_oracle(s, side: Side) -> list[int]:
    """Masks of every nonempty ideal of the side, ascending by size then
    members, from a scan of all subsets."""
    subsets = (
        mask_of(combo) for k in range(1, s.size + 1) for combo in combinations(range(s.size), k)
    )
    return [mask for mask in subsets if is_ideal(s, ElementSet(s, mask), side)]


def compatibility_oracle(table, leq):
    """The least (a, b, c, side) with a <= b, a != b, and c*a <= c*b
    ("left") or a*c <= b*c ("right") failing, scanning a, b, c ascending
    and the left side first; None when the order is compatible."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            if a == b or not leq[a][b]:
                continue
            for c in range(n):
                if not leq[table[c][a]][table[c][b]]:
                    return (a, b, c, "left")
                if not leq[table[a][c]][table[b][c]]:
                    return (a, b, c, "right")
    return None


def validator_mismatch(order: int):
    """The first (table, poset) pair of the order on which
    ``validate_structure`` disagrees with ``compatibility_oracle`` or with
    ``_compatible_orders_flat``, as a message; None, and the pair count,
    when all agree."""
    posets = all_posets(order)
    count = 0
    for f in enumerate_semigroups(order):
        listed = set(_compatible_orders_flat(order, tuple(v for row in f.table for v in row)))
        for k, leq in enumerate(posets):
            expected = compatibility_oracle(f.table, leq)
            try:
                validate_structure(order, f.table, leq_pairs(leq))
                got = None
            except NotCompatible as exc:
                got = exc.witness
            if got != expected or (got is None) != (k in listed):
                return f"table {f.table}, poset {k}: {got} against {expected}", count
            count += 1
    return None, count


def mismatches(s):
    """The names of the oracles the package disagrees with on s."""
    found = []
    if [rel.class_ids for rel in complete_semilattice_congruences(s)] != csc_oracle(s):
        found.append("complete semilattice congruences")
    if _generated_congruence_ids(s) != n_relation(s).class_ids:
        found.append("generated congruence against N")
    for side in Side:
        if [ideal.mask for ideal in enumerate_ideals(s, side)] != ideal_oracle(s, side):
            found.append(f"{side.value} ideals")
    return found


def main(order: int = 4) -> int:
    mismatch, pairs = validator_mismatch(order)
    if mismatch:
        print(f"validator mismatch on {mismatch}")
        return 1
    print(f"order {order}: {pairs} (table, poset) pairs, the validator agrees")
    count = 0
    for s in enumerate_ordered_semigroups(order):
        found = mismatches(s)
        if found:
            print(f"mismatch ({', '.join(found)}) on:")
            print(serialize_document(s), end="")
            return 1
        count += 1
    print(f"order {order}: {count} ordered semigroups, every oracle agrees")
    return 0


if __name__ == "__main__":
    sys.exit(main())
