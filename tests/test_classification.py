"""Predicates, bundles, and the classification report."""

import gc
from collections import Counter
from itertools import chain, combinations

import pytest

from ordsgp import (
    BUNDLE_ORDER,
    PREDICATE_ORDER,
    BundleResult,
    classify,
    enumerate_semigroups,
    equivalence_bundle,
    induced_substructure,
    power_ordered_semigroup,
    predicate,
    sample_ordered_semigroups,
)
from ordsgp.classification import (
    CHECK_IDS,
    CHECKS,
    COMPLETELY_REGULAR,
    GROUP_LIKE,
    LEFT_GROUP_LIKE,
    PREMISES,
    REGULAR,
    _completely_simple_class,
    _group_like_subsemigroup,
    _left_group_like_class,
    _simple,
    _union_of_group_like,
)
from ordsgp import elements
from ordsgp import sweep as sweep_module
from ordsgp.elements import first_failure, forall_exists
from ordsgp.core import OrderedSemigroup
from ordsgp.errors import NotApplicable, NotClosed, UnknownBundle, UnknownPredicate
from ordsgp.ideals import Side
from ordsgp.report import ConditionResult, make_bundle
from ordsgp.sweep import sweep_order

from order4_oracles import union_of_group_like_oracle
from conftest import (
    all_ordered_fixtures,
    differential_structures,
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
    for name in ("left_group_like", "right_group_like", "clifford", "left_clifford", "inverse"):
        with pytest.raises(NotApplicable) as exc:
            predicate(n2, name)
        assert exc.value.reason == PREMISES["regular"][1]
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


EQUALITY_CR = "a = a a x a a for some x, for all a"


def test_the_sweep_refutes_equality_complete_regularity(monkeypatch):
    # a mutant CR-EQ5 whose first condition is the unordered a in a^2 S a^2
    # for the ordered a in (a^2 S a^2]; the other four are the real check's
    real = sweep_module.CHECKS["CR-EQ5"]

    def mutant(s):
        n, tb = s.size, s.table
        holds, least, _ = first_failure(
            ((a,) for a in range(n)),
            lambda a: any(tb[tb[tb[a][a]][x]][tb[a][a]] == a for x in range(n)),
        )
        first = ConditionResult(EQUALITY_CR, holds, least)
        return make_bundle("CR-EQ5", (first,) + real(s).conditions[1:])

    monkeypatch.setitem(sweep_module.CHECKS, "CR-EQ5", mutant)
    found = sweep_order(2, 1, ("CR-EQ5",)).disagreements
    assert len(found) == 2
    assert len(sweep_order(3, 1, ("CR-EQ5",)).disagreements) == 195
    # the least: the null semigroup with 1 <= 0, where 1 is below 0 = 1*1*x*1*1
    least = found[0]
    assert least.document == min(d.document for d in found)
    assert least.document == "kind: osg\nelements: 2\ntable:\n0 0\n0 0\norder:\n1 0\n"
    assert least.result.bundle_id == "CR-EQ5" and not least.result.agree
    assert least.result.conditions[0] == ConditionResult(EQUALITY_CR, False, (1,))
    assert all(c.holds for c in least.result.conditions[1:])


def not_applicable(s):
    """check id -> premise note, for every check that refuses s."""
    notes = {}
    for check_id, check in CHECKS.items():
        try:
            check(s)
        except NotApplicable as exc:
            notes[check_id] = exc.reason
    return notes


def test_bundle_premises():
    assert CHECK_IDS == (
        "CR-EQ5", "GL-CHAR", "GL-HREL", "INV-COMM", "CR-HCOMM", "CR-INV", "CR-HCLASS",
        "CL-EQ", "CL-HCOMM", "CL-CRESEF", "CL-CRINV", "LCL-EQ5", "LCL-EQ2",
        "CR-LEASTCSC", "CR-CSDECOMP", "CR-HCLASS-GL", "CL-DECOMP", "LCL-LEASTCSC", "LCL-DECOMP",
    )
    regular = PREMISES["regular"][1]
    assert not_applicable(make_n2()) == {
        check_id: regular for check_id in ("GL-HREL", "INV-COMM", "CL-EQ", "CL-HCOMM", "LCL-EQ5")
    }
    # LZ2 is not h-commutative
    assert not_applicable(make_lz2()) == {"CR-HCOMM": PREMISES["h_commutative"][1]}
    sl2 = make_sl2()
    assert not_applicable(sl2) == {}
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


def test_classify_reports_a_size_guard_as_not_applicable(monkeypatch):
    unguarded = classify(make_n2()).bundle_results
    monkeypatch.setenv("ORDSGP_LIMITS", "ideals=1")
    guarded = classify(make_n2()).bundle_results
    changed = [(a, b) for a, b in zip(unguarded, guarded) if a != b]
    assert len(changed) == 1
    assert changed[0][1] == BundleResult(
        "CR-HCLASS",
        (),
        True,
        applicable=False,
        note="size 2 exceeds the 'ideals' guard (1); set ORDSGP_LIMITS to override",
    )
    assert changed[0][0].applicable


def test_restricted_scans_match_induced_substructures():
    """Each class test on a subset T of S equals product-closedness plus
    the carrier-wide conditions on the structure that S induces on T, on
    every subset of every fixture and every differential structure."""
    class_tests = {
        _group_like_subsemigroup: lambda sub: forall_exists(sub, *GROUP_LIKE)[0],
        _left_group_like_class: lambda sub: (
            forall_exists(sub, *REGULAR)[0] and forall_exists(sub, *LEFT_GROUP_LIKE)[0]
        ),
        _completely_simple_class: lambda sub: (
            _simple(sub, Side.TWO_SIDED)[0] and forall_exists(sub, *COMPLETELY_REGULAR)[0]
        ),
    }
    closed_subsets = 0
    for s in chain((s for _, s in all_ordered_fixtures()), differential_structures()):
        for mask in range(1, 1 << s.size):
            try:
                sub = induced_substructure(s, mask)
            except NotClosed:
                sub = None
            closed_subsets += sub is not None
            for test, on_sub in class_tests.items():
                expected = sub is not None and on_sub(sub)
                assert test(s, mask) == expected, (test.__name__, s.table, s.leq, mask)
    assert closed_subsets == 14939


def simple_by_definition(s, side):
    """``_simple``'s answer from the definition of an ideal of the side: a
    nonempty subset that absorbs products with S on that side and is
    downward closed.  The principal ideal of a is the intersection of the
    ideals that hold a; the answer is false at the least a whose principal
    ideal is not S, with the least element outside it."""
    carrier, tb, leq = range(s.size), s.table, s.leq

    def is_ideal(members):
        return all(
            (side is Side.RIGHT or tb[x][i] in members)
            and (side is Side.LEFT or tb[i][x] in members)
            and (x in members or not leq[x][i])
            for i in members
            for x in carrier
        )

    subsets = (set(c) for k in range(1, s.size + 1) for c in combinations(carrier, k))
    ideals = [members for members in subsets if is_ideal(members)]
    for a in carrier:
        principal = set.intersection(*(ideal for ideal in ideals if a in ideal))
        if len(principal) < s.size:
            return False, (a, min(set(carrier) - principal)), {}
    return True, None, {}


def test_simple_matches_the_definition():
    """``_simple`` gives the definition's verdict and counterexample on
    every side, on every differential structure and on P(F) for every F of
    order <= 2.  The order-4 sample is needed: SaS first adds to
    ({a} u Sa u aS] at order 4."""
    structures = list(differential_structures())
    structures += [power_ordered_semigroup(f) for n in (1, 2) for f in enumerate_semigroups(n)]
    assert len(structures) == 1992 + 9
    outcomes = Counter()
    for s in structures:
        for side in Side:
            expected = simple_by_definition(s, side)
            assert _simple(s, side) == expected, (s.table, s.leq, side)
            outcomes[side.value, expected[0]] += 1
    assert outcomes == {
        ("left", True): 438,
        ("left", False): 1563,
        ("right", True): 441,
        ("right", False): 1560,
        ("two-sided", True): 584,
        ("two-sided", False): 1417,
    }


def test_checks_outside_a_sweep_leave_no_cyclic_garbage():
    """Nothing a check caches on a structure refers back to it, so every
    check run straight from ``CHECKS`` on an order-4 sample, and
    ``classify`` on every fixture, leave nothing for the cyclic collector
    once the structures are dropped."""

    def run():
        for s in sample_ordered_semigroups(4, 200, 20260810):
            for check in CHECKS.values():
                try:
                    check(s)
                except NotApplicable:
                    pass
        for _, s in all_ordered_fixtures():
            classify(s)

    run()  # fills the enumeration caches
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        run()
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_union_of_group_like_matches_the_subset_scan():
    """The cover search gives the 2^n scan's verdict and least uncovered
    element on every fixture and every differential structure."""
    for s in chain((s for _, s in all_ordered_fixtures()), differential_structures()):
        assert _union_of_group_like(s) == union_of_group_like_oracle(s), (s.table, s.leq)


def fresh(s):
    """A copy of s with an empty per-structure cache."""
    return OrderedSemigroup(s.size, s.table, s.names, leq=s.leq)


def run_checks(s, check_ids):
    """check id -> BundleResult, or the premise note where the check refuses s."""
    results = {}
    for check_id in check_ids:
        try:
            results[check_id] = CHECKS[check_id](s)
        except NotApplicable as exc:
            results[check_id] = exc.reason
    return results


def test_check_results_do_not_depend_on_cache_order():
    """Each check alone on an empty cache gives the result it gives inside
    a full run in registry order and inside one in reverse order, so no
    check reads an entry that only an earlier check left."""
    count = 0
    for s in differential_structures():
        forward = run_checks(fresh(s), CHECK_IDS)
        backward = run_checks(fresh(s), CHECK_IDS[::-1])
        for check_id in CHECK_IDS:
            alone = run_checks(fresh(s), (check_id,))[check_id]
            assert alone == forward[check_id] == backward[check_id], (check_id, s.table, s.leq)
        count += 1
    assert count == 1 + 20 + 971 + 1000


def test_carrier_conditions_are_scanned_once_per_structure(monkeypatch):
    """One check_structure scans the carrier for complete regularity once;
    a predicate, which asks for witnesses, scans again on every call."""
    real = elements.witness_scan
    scans = Counter()

    def counting(s, args, terms, witnesses=False):
        if terms is COMPLETELY_REGULAR[1]:
            scans["carrier"] += 1
        return real(s, args, terms, witnesses)

    monkeypatch.setattr(elements, "witness_scan", counting)
    for name, s in all_ordered_fixtures():
        s = fresh(s)
        scans.clear()
        sweep_module.check_structure(s)
        assert scans["carrier"] == 1, name
        for _ in range(2):
            predicate(s, "completely_regular")
        assert scans == {"carrier": 3}, name
