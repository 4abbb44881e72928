"""Predicates, bundles, and the classification report."""

import pytest

from ordsgp import (
    BUNDLE_ORDER,
    PREDICATE_ORDER,
    classify,
    equivalence_bundle,
    induced_substructure,
    predicate,
)
from ordsgp.classification import (
    COMPLETELY_REGULAR,
    GROUP_LIKE,
    LEFT_GROUP_LIKE,
    REGULAR,
    _simple,
)
from ordsgp.elements import forall_exists
from ordsgp.core import mask_of
from ordsgp.errors import NotApplicable, UnknownBundle, UnknownPredicate
from ordsgp.ideals import Side

from conftest import (
    all_ordered_fixtures,
    make_b2,
    make_lz2,
    make_n2,
    make_pz2,
    make_sl2,
    make_t1,
)


def test_sl2_predicates():
    sl2 = make_sl2()
    assert predicate(sl2, "clifford").holds
    gl = predicate(sl2, "group_like")
    assert not gl.holds and gl.counterexample == (1, 0)
    assert predicate(sl2, "regular").holds
    assert predicate(sl2, "completely_regular").holds


def test_lz2_predicates():
    lz2 = make_lz2()
    assert predicate(lz2, "completely_regular").holds
    assert predicate(lz2, "left_group_like").holds
    assert not predicate(lz2, "clifford").holds
    inv = predicate(lz2, "inverse")
    assert not inv.holds and inv.counterexample == (0, 0, 1)
    assert predicate(lz2, "completely_simple").holds


def test_pz2_predicates():
    pz2 = make_pz2()
    assert predicate(pz2, "t_simple").holds
    assert predicate(pz2, "group_like").holds
    assert predicate(pz2, "clifford").holds


def test_t1_all_predicates_hold():
    t1 = make_t1()
    for name in PREDICATE_ORDER:
        assert predicate(t1, name).holds, name


def test_b2_is_inverse_but_not_clifford():
    b2 = make_b2()
    assert predicate(b2, "regular").holds
    assert predicate(b2, "inverse").holds
    assert not predicate(b2, "completely_regular").holds
    assert not predicate(b2, "clifford").holds


def test_unknown_predicate():
    with pytest.raises(UnknownPredicate):
        predicate(make_t1(), "nonsense")


def test_regularity_gate_returns_not_applicable():
    n2 = make_n2()
    for name in ("left_group_like", "clifford", "left_clifford", "inverse"):
        with pytest.raises(NotApplicable):
            predicate(n2, name)
    # ungated predicates still evaluate
    assert not predicate(n2, "regular").holds


def test_witnesses_are_least():
    sl2 = make_sl2()
    r = predicate(sl2, "h_commutative")
    assert r.holds
    assert r.witnesses[(0, 1)] == (0,)
    r = predicate(sl2, "regular")
    assert r.witnesses[(0,)] == (0,) and r.witnesses[(1,)] == (1,)


def test_bundle_cr_eq5_on_lz2():
    result = equivalence_bundle(make_lz2(), "CR-EQ5")
    assert result.agree
    assert [c.holds for c in result.conditions] == [True] * 5


def test_bundle_cl_eq():
    result = equivalence_bundle(make_sl2(), "CL-EQ")
    assert result.agree and all(c.holds for c in result.conditions)
    result = equivalence_bundle(make_lz2(), "CL-EQ")
    assert result.agree and not any(c.holds for c in result.conditions)


def test_bundle_gl_hrel_on_pz2():
    result = equivalence_bundle(make_pz2(), "GL-HREL")
    assert result.agree and all(c.holds for c in result.conditions)


def test_bundle_gl_char_has_two_groups():
    result = equivalence_bundle(make_lz2(), "GL-CHAR")
    # group like fails, left group like holds; the groups agree separately
    assert [c.holds for c in result.conditions] == [False, False, True, True]
    assert result.agree


def test_bundle_premises():
    n2 = make_n2()
    with pytest.raises(NotApplicable):
        equivalence_bundle(n2, "CL-EQ")
    lz2 = make_lz2()
    with pytest.raises(NotApplicable):
        equivalence_bundle(lz2, "CR-HCOMM")  # LZ2 is not h-commutative
    sl2 = make_sl2()
    result = equivalence_bundle(sl2, "CR-HCOMM")
    assert result.agree and all(c.holds for c in result.conditions)
    with pytest.raises(UnknownBundle):
        equivalence_bundle(sl2, "NOPE")


def test_every_bundle_agrees_on_fixtures():
    for name, s in all_ordered_fixtures():
        for bundle_id in BUNDLE_ORDER:
            try:
                result = equivalence_bundle(s, bundle_id)
            except NotApplicable:
                continue
            assert result.agree, (name, bundle_id, result)


def test_classify_reports():
    report = classify(make_sl2())
    assert report.regularity_flag
    assert report.verdicts["clifford"].holds
    assert not report.verdicts["group_like"].holds
    report = classify(make_lz2())
    assert report.verdicts["completely_regular"].holds
    assert not report.verdicts["clifford"].holds
    assert report.verdicts["left_clifford"].holds
    report = classify(make_n2())
    assert not report.regularity_flag
    assert report.verdicts["clifford"].holds is None
    report = classify(make_t1())
    assert all(r.holds for r in report.verdicts.values())


def test_restricted_scans_match_induced_substructures():
    # evaluating a scan on a closed subset must agree with classifying the
    # induced substructure
    checks = {
        "regular": REGULAR,
        "completely_regular": COMPLETELY_REGULAR,
        "group_like": GROUP_LIKE,
    }
    for name, s in all_ordered_fixtures():
        for mask in range(1, 1 << s.size):
            members = [i for i in range(s.size) if (mask >> i) & 1]
            if any(
                s.prod(a, b) not in members for a in members for b in members
            ):
                continue
            sub = induced_substructure(s, s.subset(members))
            for pname, spec in checks.items():
                restricted = forall_exists(s, *spec, mask)[0]
                induced = forall_exists(sub, *spec)[0]
                assert restricted == induced, (name, members, pname)
            restricted = _simple(s, Side.TWO_SIDED, mask)[0]
            induced = _simple(sub, Side.TWO_SIDED)[0]
            assert restricted == induced, (name, members)
            restricted = forall_exists(s, *LEFT_GROUP_LIKE, mask)[0]
            induced = forall_exists(sub, *LEFT_GROUP_LIKE)[0]
            assert restricted == induced, (name, members)
