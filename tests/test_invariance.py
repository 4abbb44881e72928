"""The paper's classes are properties of ordered semigroups up to
isomorphism, and its right-sided notions are the left-sided ones on the
dual.  These tests hold every check to both: relabeling a structure moves
no verdict, and reversing its multiplication moves only the one-sided
ones, to their mirrors.  Witnesses and counterexamples name elements, so
only verdicts are compared."""

import random
from itertools import permutations

from ordsgp import enumerate_ordered_semigroups, sample_ordered_semigroups
from ordsgp.enumeration import DEFAULT_SAMPLE_SEED

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
