"""The paper's classes are properties of ordered semigroups up to
isomorphism, and its right-sided notions are the left-sided ones on the
dual.  These tests hold every check to both: relabeling a structure moves
no verdict, and reversing its multiplication moves only the one-sided
ones, to their mirrors.  Witnesses and counterexamples name elements, so
only verdicts are compared.

A third contract goes beyond the paper: each predicate that holds under
one compatible order of a table holds under every larger one.  It is
only observed, never used to skip or infer a check."""

import random
from itertools import groupby, permutations

from ordsgp import (
    PREDICATE_ORDER,
    enumerate_ordered_semigroups,
    predicate,
    sample_ordered_semigroups,
    serialize_document,
)
from ordsgp.enumeration import DEFAULT_SAMPLE_SEED
from ordsgp.errors import NotApplicable

from order4_oracles import DualPairs, check_verdicts, relabel_mismatches


def _small():
    """Every ordered semigroup of order <= 3."""
    return [s for n in (1, 2, 3) for s in enumerate_ordered_semigroups(n)]


def test_every_relabeling_up_to_order_3_keeps_every_verdict():
    pairs, found = 0, []
    for s in _small():
        verdicts = check_verdicts(s)
        for p in permutations(range(s.size)):
            found += relabel_mismatches(s, p, verdicts)
            pairs += 1
    assert pairs == 1 + 20 * 2 + 971 * 6
    assert found == []


def test_a_seeded_relabeling_of_the_order_4_sample_keeps_every_verdict():
    rng = random.Random(DEFAULT_SAMPLE_SEED)
    found = []
    for s in sample_ordered_semigroups(4, 1000):
        found += relabel_mismatches(s, rng.sample(range(4), 4), check_verdicts(s))
    assert found == []


def test_the_dual_up_to_order_3_mirrors_every_verdict():
    # every order <= 3 stream is closed under duality, so each structure
    # meets its dual there and its checks run once
    duals, found = DualPairs(), []
    for s in _small():
        found += duals.add(s, check_verdicts(s))
    assert found == []
    assert duals.pending == {}


def _holding(s):
    """The predicates that hold on s; a premise that fails counts as not
    holding."""
    held = set()
    for name in PREDICATE_ORDER:
        try:
            if predicate(s, name).holds:
                held.add(name)
        except NotApplicable:
            pass
    return held


def test_every_predicate_up_to_order_3_survives_a_larger_order():
    # the pairs <=1 strictly inside <=2 among one table's compatible orders
    pairs, found, grew = 0, [], set()
    for _, group in groupby(_small(), key=lambda s: s.table):
        orders = [(s, _holding(s)) for s in group]
        for low, low_held in orders:
            for high, high_held in orders:
                below = all(not a or b for r, q in zip(low.leq, high.leq) for a, b in zip(r, q))
                if below and low.leq != high.leq:
                    pairs += 1
                    found += [(serialize_document(low), high.order_pairs(), name) for name in low_held - high_held]
                    grew |= high_held - low_held
    assert pairs == 2052
    assert found == []
    # not vacuous: every predicate turns from false to true on some pair
    assert grew == set(PREDICATE_ORDER)
