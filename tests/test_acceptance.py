"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Scales: the full labeled enumeration at orders 1..3 plus a deterministic
10,000-structure sample at order 4 (fixed seed).  Every tolerance is zero
violations.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

import itertools
import random
import time

import pytest

from ordsgp import (
    BUNDLE_ORDER,
    THEOREM_ORDER,
    Side,
    classify,
    complete_semilattice_congruences,
    decompose,
    enumerate_ideals,
    enumerate_ordered_semigroups,
    enumerate_semigroups,
    idempotent_ideal_identities,
    least_csc,
    parse_document,
    power_correspondence_check,
    predicate,
    principal_ideal,
    relation_properties,
    semigroup_morphism,
    serialize_document,
    transcript_hash,
    universal_extension,
)
from ordsgp.classification import COMPLETELY_REGULAR
from ordsgp.core import bits, down_closure, set_product
from ordsgp.elements import forall_exists, idempotent_mask, is_regular_structure
from ordsgp.enumeration import sample_ordered_semigroups
from ordsgp.errors import NotApplicable
from ordsgp.sweep import CHECK_IDS, CHECKS, check_structure

from conftest import JOIN_CLOSED, ORDERED_FIXTURES, all_ordered_fixtures

N4_SAMPLE = 10_000
N4_SEED = 20260810

# frozen after the first oracle-verified run
SEMIGROUP_COUNTS = {1: 1, 2: 8, 3: 113}
ORDERED_COUNTS = {1: 1, 2: 20, 3: 971}


def small_structures():
    for n in (1, 2, 3):
        yield from enumerate_ordered_semigroups(n)


def n4_sample():
    return sample_ordered_semigroups(4, N4_SAMPLE, seed=N4_SEED)


class Tally:
    """Aggregated verification over one pass of the structure stream."""

    def __init__(self):
        self.total = 0
        self.bundle_disagreements = []
        self.theorem_disagreements = []
        self.cr_structures = 0
        self.type_tau_failures = []
        self.csc_oracle_failures = []
        self.minimality_failures = []

    def feed(self, s):
        self.total += 1
        self.bundle_disagreements.extend(check_structure(s, BUNDLE_ORDER))
        self.theorem_disagreements.extend(check_structure(s, THEOREM_ORDER))

        least = least_csc(s)
        if forall_exists(s, *COMPLETELY_REGULAR)[0]:
            self.cr_structures += 1
            result = decompose(s, least)
            for cond in result.condition_verdicts:
                if not cond.holds:
                    self.type_tau_failures.append((serialize_document(s), cond.label))

        cscs = complete_semilattice_congruences(s)
        if least.class_ids not in {rel.class_ids for rel in cscs}:
            self.csc_oracle_failures.append((serialize_document(s), "not a CSC"))
        props = relation_properties(s, least)
        if not (
            props.left_congruence
            and props.right_congruence
            and props.congruence
            and props.semilattice
            and props.complete_semilattice
        ):
            self.csc_oracle_failures.append((serialize_document(s), "flags"))
        for rel in cscs:
            if not least.refines(rel):
                self.csc_oracle_failures.append((serialize_document(s), "not least"))

        for side in Side:
            ideals = enumerate_ideals(s, side)
            for a in range(s.size):
                meet = None
                for ideal in ideals:
                    if a in ideal:
                        meet = ideal.mask if meet is None else meet & ideal.mask
                if meet != principal_ideal(s, a, side).mask:
                    self.minimality_failures.append((serialize_document(s), a, side.value))


@pytest.fixture(scope="module")
def small_tally():
    tally = Tally()
    tally.elapsed = -time.time()
    for s in small_structures():
        tally.feed(s)
    tally.elapsed += time.time()
    return tally


@pytest.fixture(scope="module")
def n4_tally():
    tally = Tally()
    tally.elapsed = -time.time()
    for s in n4_sample():
        tally.feed(s)
    tally.elapsed += time.time()
    return tally


def _report(criterion, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_bundle_sweep(small_tally, n4_tally):
    bad = small_tally.bundle_disagreements + n4_tally.bundle_disagreements
    for item in bad[:3]:
        print(item.result)
        print(item.document)
    _report(
        1,
        not bad,
        f"all {len(BUNDLE_ORDER)} bundles agree on {small_tally.total} enumerated "
        f"(n<=3) and {n4_tally.total} sampled (n=4) structures "
        f"[{small_tally.elapsed:.1f}s + {n4_tally.elapsed:.1f}s]",
    )


def test_criterion_2_structure_theorems(small_tally, n4_tally):
    bad = small_tally.theorem_disagreements + n4_tally.theorem_disagreements
    tau_bad = small_tally.type_tau_failures + n4_tally.type_tau_failures
    for item in bad[:3]:
        print(item.result)
        print(item.document)
    cr = small_tally.cr_structures + n4_tally.cr_structures
    _report(
        2,
        not bad and not tau_bad,
        f"all {len(THEOREM_ORDER)} structure theorems agree; the four "
        f"decomposition conditions hold on all {cr} completely regular "
        "structures",
    )


def test_criterion_3_least_congruence_oracle(small_tally, n4_tally):
    bad = small_tally.csc_oracle_failures + n4_tally.csc_oracle_failures
    _report(
        3,
        not bad,
        "least complete semilattice congruence is one of the enumerated "
        "complete semilattice congruences, passes every congruence flag, and "
        f"refines every one of them on {small_tally.total + n4_tally.total} structures",
    )


def test_criterion_4_power_correspondences():
    started = time.time()
    checked = 0
    failures = []
    for n in (1, 2, 3, 4):
        for sg in enumerate_semigroups(n):
            for prop in ("t_simple", "left_group_like", "completely_regular"):
                result = power_correspondence_check(sg, prop)
                checked += 1
                if not result.agree:
                    failures.append((sg.table, prop))

    hom_checked = 0
    sources = [sg for n in (1, 2) for sg in enumerate_semigroups(n)]
    for name in JOIN_CLOSED:
        target = ORDERED_FIXTURES[name]()
        for f_sg in sources:
            for mapping in itertools.product(range(target.size), repeat=f_sg.size):
                ok = all(
                    mapping[f_sg.table[x][y]] == target.table[mapping[x]][mapping[y]]
                    for x in range(f_sg.size)
                    for y in range(f_sg.size)
                )
                if not ok:
                    continue
                phi = universal_extension(
                    f_sg, target, semigroup_morphism(f_sg, target, mapping)
                )
                hom_checked += 1
                for x in range(f_sg.size):
                    if phi.mapping[x] != mapping[x]:
                        failures.append((f_sg.table, name, mapping))
    _report(
        4,
        not failures,
        f"{checked} power correspondences over all semigroups with |F| <= 4 "
        f"and {hom_checked} universal extensions agree "
        f"[{time.time() - started:.1f}s]",
    )


def test_criterion_5_kernel_properties(small_tally, n4_tally):
    rng = random.Random(99)
    closure_bad = 0
    for n in (1, 2, 3):
        for s in enumerate_ordered_semigroups(n):
            for _ in range(4):
                x = s.subset([i for i in range(s.size) if rng.random() < 0.5])
                cx = down_closure(s, x)
                if x.mask & ~cx.mask or down_closure(s, cx) != cx:
                    closure_bad += 1
                y = s.subset([i for i in range(s.size) if rng.random() < 0.5])
                union = s.subset(set(x.members) | set(y.members))
                if cx.mask & ~down_closure(s, union).mask:
                    closure_bad += 1
                a, b, c = (
                    s.subset([i for i in range(s.size) if rng.random() < 0.6])
                    for _ in range(3)
                )
                if set_product(s, set_product(s, a, b), c) != set_product(
                    s, a, set_product(s, b, c)
                ):
                    closure_bad += 1

    ideal_identity_bad = 0
    identity_checks = 0
    for n in (1, 2, 3):
        for s in enumerate_ordered_semigroups(n):
            if not is_regular_structure(s):
                continue
            idem = list(bits(idempotent_mask(s)))
            for e in idem:
                for f in idem:
                    identity_checks += 1
                    if not idempotent_ideal_identities(s, e, f).agree:
                        ideal_identity_bad += 1

    minimality_bad = small_tally.minimality_failures + n4_tally.minimality_failures
    _report(
        5,
        closure_bad == 0 and ideal_identity_bad == 0 and not minimality_bad,
        f"closure-operator laws hold; {identity_checks} ideal identities hold on "
        "every regular enumerated structure; principal ideals are minimal "
        f"against ideal enumeration on {small_tally.total + n4_tally.total} structures",
    )


def _least(s, holds):
    """Least x in the carrier with holds(x), or None."""
    return next((x for x in range(s.size) if holds(x)), None)


def _witness(*xs):
    """The witness tuple, or None when some component has no witness."""
    return None if None in xs else xs


def _left_div(s, a, b):
    return _least(s, lambda x: s.le(a, s.prod(x, b)))


def _right_div(s, a, b):
    return _least(s, lambda y: s.le(a, s.prod(b, y)))


# least witness tuple at one argument tuple, straight from the definitions
BRUTE_WITNESS = {
    "regular": lambda s, a: _witness(_least(s, lambda x: s.le(a, s.word(a, x, a)))),
    "completely_regular": lambda s, a: _witness(
        _least(s, lambda x: s.le(a, s.word(s.prod(a, a), x, s.prod(a, a))))
    ),
    "h_commutative": lambda s, a, b: _witness(
        _least(s, lambda x: s.le(s.prod(a, b), s.word(b, x, a)))
    ),
    "left_group_like": lambda s, a, b: _witness(_left_div(s, a, b)),
    "right_group_like": lambda s, a, b: _witness(_right_div(s, a, b)),
    "group_like": lambda s, a, b: _witness(_left_div(s, a, b), _right_div(s, a, b)),
    "clifford": lambda s, a, e: _witness(
        _least(s, lambda u: s.le(s.prod(a, e), s.word(e, u, a))),
        _least(s, lambda v: s.le(s.prod(e, a), s.word(a, v, e))),
    ),
}


def _brute_args(s, name):
    """The predicate's argument tuples in ascending order."""
    if name == "clifford":
        idempotents = [e for e in range(s.size) if s.le(e, s.prod(e, e))]
        return itertools.product(range(s.size), idempotents)
    arity = 1 if name in ("regular", "completely_regular") else 2
    return itertools.product(range(s.size), repeat=arity)


def test_criterion_6_determinism_and_roundtrip():
    roundtrip_bad = 0
    structures = list(small_structures())
    for s in structures + [s for _, s in all_ordered_fixtures()]:
        doc = serialize_document(s)
        if parse_document(doc) != s or serialize_document(parse_document(doc)) != doc:
            roundtrip_bad += 1

    docs_a = [serialize_document(s) for s in enumerate_ordered_semigroups(3)]
    docs_b = [serialize_document(s) for s in enumerate_ordered_semigroups(3)]
    hashes_equal = transcript_hash(docs_a) == transcript_hash(docs_b)

    witness_bad = 0
    witness_checks = 0
    for s in structures:
        for name, brute in BRUTE_WITNESS.items():
            try:
                result = predicate(s, name)
            except NotApplicable:
                continue  # a regularity-gated predicate on a non-regular structure
            witness_checks += 1
            if result.holds:
                witness_bad += sum(
                    wit != brute(s, *args) for args, wit in result.witnesses.items()
                )
            else:
                expect = next(
                    argt for argt in _brute_args(s, name) if brute(s, *argt) is None
                )
                if result.counterexample != expect:
                    witness_bad += 1

    _report(
        6,
        roundtrip_bad == 0 and hashes_equal and witness_bad == 0,
        f"serialize/parse identity on {len(structures)} structures and all fixtures; "
        f"two enumeration runs hash identically; the witnesses and counterexamples of "
        f"{witness_checks} predicate verdicts are lexicographically least",
    )


def test_criterion_7_regression_counts():
    semigroup_counts = {n: sum(1 for _ in enumerate_semigroups(n)) for n in (1, 2, 3)}
    ordered_counts = {
        n: sum(1 for _ in enumerate_ordered_semigroups(n)) for n in (1, 2, 3)
    }
    _report(
        7,
        semigroup_counts == SEMIGROUP_COUNTS and ordered_counts == ORDERED_COUNTS,
        f"semigroup counts {semigroup_counts} and ordered-semigroup counts "
        f"{ordered_counts} match the frozen constants",
    )


def test_no_vacuous_condition():
    """Every condition of every bundle and theorem takes both truth values
    on the structures of order <= 3 where its check applies."""
    seen = {check_id: set() for check_id in CHECK_IDS}
    for s in small_structures():
        for check_id, check in CHECKS.items():
            try:
                result = check(s)
            except NotApplicable:
                continue
            if result.applicable:
                seen[check_id].add(tuple(c.holds for c in result.conditions))
    for check_id, patterns in seen.items():
        assert patterns, f"{check_id} never applies"
        for i, values in enumerate(zip(*patterns)):
            assert set(values) == {True, False}, f"{check_id} condition {i} is constant"
