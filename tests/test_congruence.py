"""Congruence flags, decomposition, and the structure theorems."""

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
    least_csc,
    n_relation,
    relation_properties,
    structure_theorem_check,
    validate_structure,
)
from ordsgp import congruence
from ordsgp.errors import (
    NotCompleteSemilattice,
    NotPartition,
    SizeLimit,
    UnknownTheorem,
)

from conftest import all_ordered_fixtures, make_lz2, make_sl2, make_t1


def identity_rel(s):
    return EquivalenceRelation.from_class_ids(s, range(s.size))


def universal_rel(s):
    return EquivalenceRelation.from_class_ids(s, [0] * s.size)


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


def test_relation_properties_wrong_structure():
    sl2, lz2 = make_sl2(), make_lz2()
    with pytest.raises(NotPartition):
        relation_properties(sl2, identity_rel(lz2).__class__(sl2, (0,), ()))


def test_least_csc_examples():
    assert least_csc(make_sl2()).num_classes() == 2
    assert least_csc(make_lz2()).num_classes() == 1
    assert least_csc(make_t1()).num_classes() == 1


def test_least_csc_is_least_on_fixtures():
    for name, s in all_ordered_fixtures():
        if s.size > 5:
            continue
        least = least_csc(s)
        assert least == n_relation(s), name
        props = relation_properties(s, least)
        assert props.complete_semilattice, name
        found = complete_semilattice_congruences(s)
        assert least.class_ids in [rel.class_ids for rel in found], name
        for rel in found:
            assert least.refines(rel), name


def test_enumerate_partitions_counts_and_order():
    bell = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52}
    for n, count in bell.items():
        parts = list(enumerate_partitions(n))
        assert len(parts) == count
        assert parts == sorted(parts)  # lexicographic restricted-growth order
        assert len(set(parts)) == count
    with pytest.raises(SizeLimit):
        list(enumerate_partitions(10))


def test_decompose_sl2():
    sl2 = make_sl2()
    result = decompose(sl2, least_csc(sl2))
    assert result.quotient_size == 2
    assert [sorted(c) for c in result.rho.classes] == [[0], [1]]
    assert all(c.holds for c in result.condition_verdicts)
    # class of 0 sits below class of 1 in the quotient
    assert result.quotient_order[0][1] and not result.quotient_order[1][0]
    for c in result.rho.classes:
        assert classify(induced_substructure(sl2, c)).verdicts["group_like"].holds


def test_decompose_lz2():
    lz2 = make_lz2()
    result = decompose(lz2, least_csc(lz2))
    assert result.quotient_size == 1
    (c,) = result.rho.classes
    assert classify(induced_substructure(lz2, c)).verdicts["completely_simple"].holds
    assert all(c.holds for c in result.condition_verdicts)


def test_decompose_t1():
    t1 = make_t1()
    assert decompose(t1, least_csc(t1)).quotient_size == 1


def test_decompose_rejects_non_csc():
    lz2 = make_lz2()
    with pytest.raises(NotCompleteSemilattice):
        decompose(lz2, identity_rel(lz2))


def test_decompose_checks_class_products(monkeypatch):
    # {0} and {1, 2} is not a congruence (1*1 = 1 but 1*2 = 0), so S_b * S_b
    # leaves S_b; with the congruence flags forced true, the third
    # condition must report the least failing tuple
    s = validate_structure(3, [[0, 0, 0], [0, 1, 0], [0, 0, 0]])
    rho = EquivalenceRelation.from_class_ids(s, (0, 1, 1))
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
    h = EquivalenceRelation.from_class_ids(s, ids)
    monkeypatch.setattr(congruence, "green_relation", lambda s, kind: h)
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
        result = decompose(s, least_csc(s))
        table = result.quotient_table
        k = result.quotient_size
        for a in range(k):
            assert table[a][a] == a, name  # idempotent
            for b in range(k):
                assert table[a][b] == table[b][a], name  # commutative
