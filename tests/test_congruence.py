"""Congruence flags, decomposition, and the structure theorems."""

import gc

import pytest

from ordsgp import (
    EquivalenceRelation,
    RelationProperties,
    THEOREM_ORDER,
    classify,
    complete_semilattice_congruences,
    decompose,
    induced_substructure,
    enumerate_partitions,
    n_relation,
    relation_properties,
    serialize_document,
    structure_theorem_check,
    validate_structure,
)
from ordsgp import classification, congruence
from ordsgp.errors import (
    NotCompleteSemilattice,
    NotPartition,
    SizeLimit,
    UnknownTheorem,
)

from conftest import (
    all_ordered_fixtures,
    differential_structures,
    make_lz2,
    make_sl2,
    make_t1,
    refines,
)
from order4_oracles import csc_oracle, relation_properties_oracle


def identity_rel(s):
    return EquivalenceRelation(range(s.size))


def universal_rel(s):
    return EquivalenceRelation([0] * s.size)


def test_relation_properties_examples():
    sl2 = make_sl2()
    props = relation_properties(sl2, identity_rel(sl2))
    assert props.congruence and props.semilattice and props.complete_semilattice

    lz2 = make_lz2()
    props = relation_properties(lz2, identity_rel(lz2))
    assert props.congruence
    assert not props.semilattice
    assert props.counterexamples["semilattice"] == (0, 1)

    for name, s in all_ordered_fixtures():
        props = relation_properties(s, universal_rel(s))
        assert props.complete_semilattice, name


@pytest.mark.parametrize("ids", [(0,), (0, 1, 2)], ids=repr)
def test_a_relation_of_another_length_is_not_a_partition(ids):
    """A relation on fewer or more elements than the carrier is one
    NotPartition from ``relation_properties`` and from ``decompose``."""
    sl2 = make_sl2()
    message = f"relation on {len(ids)} elements, structure has 2"
    for call in (relation_properties, decompose):
        with pytest.raises(NotPartition, match=message):
            call(sl2, EquivalenceRelation(ids))


def test_a_relation_of_the_same_length_is_judged_on_the_structure():
    """A relation holds no structure: N of SL2 is the identity relation on
    two elements, a complete semilattice congruence of SL2 and not of LZ2."""
    sl2, lz2 = make_sl2(), make_lz2()
    rho = n_relation(sl2)
    assert relation_properties(sl2, rho).complete_semilattice
    assert relation_properties(lz2, rho) == relation_properties(lz2, identity_rel(lz2))
    assert relation_properties(lz2, rho).counterexamples == {"semilattice": (0, 1)}


def test_least_csc_examples():
    assert n_relation(make_sl2()).num_classes() == 2
    assert n_relation(make_lz2()).num_classes() == 1
    assert n_relation(make_t1()).num_classes() == 1


def test_least_csc_is_least_on_fixtures():
    for name, s in all_ordered_fixtures():
        if s.size > 5:
            continue
        least = n_relation(s)
        props = relation_properties(s, least)
        assert props.complete_semilattice, name
        found = complete_semilattice_congruences(s)
        assert least.class_ids in [rel.class_ids for rel in found], name
        for rel in found:
            assert refines(least, rel), name


def test_cscs_match_partition_scan():
    """The complete semilattice congruences, order included, against a scan
    of every partition of the carrier."""
    count = 0
    for s in differential_structures():
        found = [rel.class_ids for rel in complete_semilattice_congruences(s)]
        assert found == csc_oracle(s), serialize_document(s)
        count += 1
    assert count == 1 + 20 + 971 + 1000


def test_relation_properties_match_the_loops():
    """The five flags and the counterexample dict, compared as dicts, of
    every partition of every differential structure, against the
    flag-and-break loops over the definitions."""
    count = 0
    for s in differential_structures():
        for rgs in enumerate_partitions(s.size):
            rho = EquivalenceRelation(rgs)
            assert relation_properties(s, rho) == relation_properties_oracle(s, rgs), (
                serialize_document(s),
                rgs,
            )
            count += 1
    assert count == 1 + 20 * 2 + 971 * 5 + 1000 * 15


def test_generated_congruence_is_n():
    """The congruence generated by the axiom pairs, computed from the table
    and the order, equals N, computed from the principal filters: both are
    the least complete semilattice congruence."""
    for s in differential_structures():
        g = congruence._generated_congruence_ids(s)
        assert g == n_relation(s).class_ids, serialize_document(s)


def test_enumerate_partitions_counts_and_order():
    bell = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52}
    for n, count in bell.items():
        parts = list(enumerate_partitions(n))
        assert len(parts) == count
        assert parts == sorted(parts)  # lexicographic restricted-growth order
        assert len(set(parts)) == count
    with pytest.raises(SizeLimit):
        list(enumerate_partitions(10))
    assert list(enumerate_partitions(0)) == []


def test_enumerate_partitions_leaves_no_cyclic_garbage():
    """A call builds no self-referencing closure, so nothing it leaves
    waits for the cyclic collector."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for n in (0, 1, 3, 5):
            list(enumerate_partitions(n))
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize(
    "n, message",
    [(-1, "at least 0, got -1"), (2.0, "not an integer: 2.0"), ("3", "not an integer: '3'")],
)
def test_enumerate_partitions_refuses_a_bad_n(n, message):
    """A negative n never recurses without end, a float is not read as the
    integer it equals, and a string is no bare TypeError."""
    with pytest.raises(ValueError, match=message):
        list(enumerate_partitions(n))


def test_decompose_sl2():
    sl2 = make_sl2()
    result = decompose(sl2, n_relation(sl2))
    assert result.quotient_size == 2
    assert result.rho.masks == (0b01, 0b10)
    assert all(c.holds for c in result.condition_verdicts)
    # class of 0 sits below class of 1 in the quotient
    assert result.quotient_order[0][1] and not result.quotient_order[1][0]
    for m in result.rho.masks:
        assert classify(induced_substructure(sl2, m)).verdicts["group_like"].holds


def test_decompose_lz2():
    lz2 = make_lz2()
    result = decompose(lz2, n_relation(lz2))
    assert result.quotient_size == 1
    (m,) = result.rho.masks
    assert classify(induced_substructure(lz2, m)).verdicts["completely_simple"].holds
    assert all(c.holds for c in result.condition_verdicts)


def test_decompose_t1():
    t1 = make_t1()
    assert decompose(t1, n_relation(t1)).quotient_size == 1


def test_decompose_rejects_non_csc():
    lz2 = make_lz2()
    with pytest.raises(NotCompleteSemilattice):
        decompose(lz2, identity_rel(lz2))


@pytest.mark.parametrize("ids", [(0, 2), (1, 0), ("a", "b")], ids=repr)
def test_relation_ids_are_numbered_by_first_appearance(ids):
    """Any per-element ids are numbered 0, 1, ... by first appearance, so
    (0, 2) leaves no class empty and decomposes as (0, 1) does."""
    sl2 = make_sl2()
    rho = EquivalenceRelation(ids)
    assert (rho.class_ids, rho.num_classes(), rho.masks) == ((0, 1), 2, (0b01, 0b10))
    assert decompose(sl2, rho) == decompose(sl2, EquivalenceRelation((0, 1)))


def test_decompose_checks_class_products(monkeypatch):
    # {0} and {1, 2} is not a congruence (1*1 = 1 but 1*2 = 0), so S_b * S_b
    # leaves S_b; with the congruence flags forced true, the third
    # condition must report the least failing tuple
    s = validate_structure(3, [[0, 0, 0], [0, 1, 0], [0, 0, 0]])
    rho = EquivalenceRelation((0, 1, 1))
    assert not relation_properties(s, rho).congruence
    monkeypatch.setattr(
        congruence,
        "relation_properties",
        lambda s, rho: RelationProperties(True, True, True, True, True, {}),
    )
    result = decompose(s, rho)
    assert result.quotient_table == ((0, 0), (0, 1))
    products = result.condition_verdicts[2]
    assert products.label == "S_a * S_b inside S_{ab}"
    assert not products.holds and products.detail == (1, 1, 1, 2)
    assert all(c.holds for i, c in enumerate(result.condition_verdicts) if i != 2)


@pytest.mark.parametrize(
    "size, table, pairs, ids, verdicts, details",
    [
        # product-closed classes {0} and {1, 2}: every product in {1, 2} is
        # 1, so 2 <= x*1 has no x there and no h gives 2 <= 2h2
        (
            3,
            [[0, 0, 0], [0, 1, 1], [0, 1, 1]],
            [(1, 0), (2, 0)],
            (0, 1, 1),
            [True, True, False, False],
            [None, None, (1, 2), (2,)],
        ),
        # one class {0, 1} of a discrete semilattice: 1 <= x*0 has no x,
        # but h = 0 serves 0 and h = 1 serves 1
        (2, [[0, 0], [0, 1]], [], (0, 0), [True, True, False, True], [None, None, (0, 1), None]),
    ],
)
def test_cr_hclass_gl_checks_shared_h(monkeypatch, size, table, pairs, ids, verdicts, details):
    # with H forced to a partition of product-closed classes, the last two
    # conditions are decided by the classes alone
    s = validate_structure(size, table, pairs)
    h = EquivalenceRelation(ids)
    monkeypatch.setattr(classification, "green_relation", lambda s, kind: h)
    result = structure_theorem_check(s, "CR-HCLASS-GL")
    assert [c.holds for c in result.conditions] == verdicts
    assert [c.detail for c in result.conditions] == details
    assert not result.agree


def test_structure_theorem_examples():
    lz2 = make_lz2()
    result = structure_theorem_check(lz2, "CR-LEASTCSC")
    assert result.agree and all(c.holds for c in result.conditions)

    sl2 = make_sl2()
    result = structure_theorem_check(sl2, "CL-DECOMP")
    assert result.agree and all(c.holds for c in result.conditions)

    result = structure_theorem_check(lz2, "CL-DECOMP")
    assert result.agree
    assert not result.conditions[0].holds  # not clifford
    assert not result.conditions[1].holds  # universal class is not group like

    result = structure_theorem_check(lz2, "LCL-DECOMP")
    assert result.agree and all(c.holds for c in result.conditions)

    with pytest.raises(UnknownTheorem):
        structure_theorem_check(lz2, "NOPE")


def test_every_theorem_agrees_on_fixtures():
    for name, s in all_ordered_fixtures():
        if s.size > 5:
            continue
        for theorem_id in THEOREM_ORDER:
            result = structure_theorem_check(s, theorem_id)
            assert result.agree, (name, theorem_id, result)


def test_quotient_is_a_semilattice():
    for name, s in all_ordered_fixtures():
        if s.size > 5:
            continue
        result = decompose(s, n_relation(s))
        table = result.quotient_table
        k = result.quotient_size
        for a in range(k):
            assert table[a][a] == a, name  # idempotent
            for b in range(k):
                assert table[a][b] == table[b][a], name  # commutative
