"""The paper's classes are properties of ordered semigroups up to
isomorphism, and its right-sided notions are the left-sided ones on the
dual.  These tests hold every check to both: relabeling a structure moves
no verdict, and reversing its multiplication moves only the one-sided
ones, to their mirrors.  Witnesses and counterexamples name elements, so
only verdicts are compared."""

import random
from itertools import permutations

from ordsgp import dual_structure, enumerate_ordered_semigroups, predicate, sample_ordered_semigroups
from ordsgp.classification import PREDICATES
from ordsgp.enumeration import DEFAULT_SAMPLE_SEED
from ordsgp.errors import NotApplicable

from order4_oracles import check_verdicts, relabel_mismatches


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


# the one-sided predicates and their mirrors; every other predicate but
# left_clifford, whose mirror is not in the registry, is its own mirror
MIRROR = {
    "left_group_like": "right_group_like",
    "right_group_like": "left_group_like",
    "left_simple": "right_simple",
    "right_simple": "left_simple",
}
# checks of a one-sided class, whose mirror is no check
ONE_SIDED = {"GL-CHAR", "LCL-EQ5", "LCL-EQ2", "LCL-LEASTCSC", "LCL-DECOMP"}


def _holds(s, name):
    """A predicate's verdict; not applicable counts as a value."""
    try:
        return predicate(s, name).holds
    except NotApplicable as exc:
        return exc.reason


def test_the_dual_up_to_order_3_mirrors_every_verdict():
    found = []
    for s in _small():
        d = dual_structure(s)
        for name in PREDICATES.keys() - {"left_clifford"}:
            if _holds(d, MIRROR.get(name, name)) != _holds(s, name):
                found.append((s.table, s.leq, name))
        verdicts, mirrored = check_verdicts(s), check_verdicts(d)
        agree, holds = mirrored["CR-EQ5"]
        # conditions 2 and 3 of CR-EQ5 are each other's duals
        mirrored["CR-EQ5"] = (agree, holds[:2] + (holds[3], holds[2]) + holds[4:])
        for check_id in verdicts.keys() - ONE_SIDED:
            if mirrored[check_id] != verdicts[check_id]:
                found.append((s.table, s.leq, check_id))
    assert found == []
