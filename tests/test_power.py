"""Power construction, joins, the universal extension, and correspondences."""

import pytest

from ordsgp import (
    classify,
    enumerate_semigroups,
    is_completely_regular_semigroup,
    is_group,
    is_left_group,
    join,
    power_correspondence_check,
    power_ordered_semigroup,
    semigroup_morphism,
    universal_extension,
    validate_semigroup,
    validate_structure,
)
from ordsgp.errors import NoJoin, NotMorphism, SizeLimit, UnknownPredicate
from ordsgp.power import _power_structure

from conftest import (
    JOIN_CLOSED,
    ORDERED_FIXTURES,
    make_lz2,
    make_lz2_sg,
    make_n2_sg,
    make_t1,
    make_z2,
    make_z3,
)
from order4_oracles import power_oracle


def test_power_of_z2_structure():
    p = power_ordered_semigroup(make_z2())
    # carrier {0},{1},{0,1}; the two-element class squares back to the identity
    assert p.size == 3
    assert p.table == ((0, 1, 2), (1, 0, 2), (2, 2, 2))
    assert p.order_pairs() == [(0, 2), (1, 2)]
    assert p.names == ("{0}", "{1}", "{0,1}")


def test_power_of_trivial_semigroup():
    p = power_ordered_semigroup(validate_semigroup(1, [[0]]))
    assert p.size == 1 and p.table == ((0,),)


def test_power_of_left_zero_is_left_group_like():
    p = power_ordered_semigroup(make_lz2_sg())
    assert p.size == 3
    report = classify(p)
    assert report.verdicts["left_group_like"].holds
    assert not report.verdicts["group_like"].holds


def test_power_output_validates():
    for sg in (make_z2(), make_z3(), make_lz2_sg(), make_n2_sg()):
        p = power_ordered_semigroup(sg)
        rebuilt = validate_structure(p.size, p.table, p.order_pairs(), p.names)
        assert rebuilt == p


def test_power_size_guard(monkeypatch):
    monkeypatch.setenv("ORDSGP_LIMITS", "power=2")
    with pytest.raises(SizeLimit):
        power_ordered_semigroup(make_z3())


def test_power_size_guard_holds_on_memo_hit(monkeypatch):
    power_ordered_semigroup(make_z3())
    monkeypatch.setenv("ORDSGP_LIMITS", "power=2")
    with pytest.raises(SizeLimit):
        power_ordered_semigroup(make_z3())


def test_power_memo_key():
    z3 = make_z3()
    first = power_ordered_semigroup(z3)
    assert power_ordered_semigroup(make_z3()) is first
    renamed = validate_semigroup(3, z3.table, names=("a", "b", "c"))
    assert power_ordered_semigroup(renamed).names != first.names
    # same table under other names, a different table, then the first F again
    for f in (renamed, make_lz2_sg(), z3):
        p = power_ordered_semigroup(f)
        fresh = _power_structure.__wrapped__(f)
        assert p == fresh and p.names == fresh.names
    assert power_ordered_semigroup(z3) == first


def test_join_examples():
    p = power_ordered_semigroup(make_z2())
    assert join(p, 0, 1) == 2
    assert join(p, 0, 2) == 2
    lz2 = make_lz2()
    with pytest.raises(NoJoin):
        join(lz2, 0, 1)


def test_morphism_validation():
    z2 = make_z2()
    p = power_ordered_semigroup(z2)
    semigroup_morphism(z2, p, [0, 1])
    with pytest.raises(NotMorphism):
        semigroup_morphism(z2, p, [0, 2])
    with pytest.raises(ValueError):
        semigroup_morphism(z2, p, [0])


def test_morphism_values_must_be_integers():
    z2 = make_z2()
    p = power_ordered_semigroup(z2)
    with pytest.raises(ValueError, match="mapping entry 1 is not an integer: 1.0"):
        semigroup_morphism(z2, p, [0, 1.0])


def test_universal_extension_identity_on_power():
    z2 = make_z2()
    p = power_ordered_semigroup(z2)
    phi = universal_extension(z2, p, semigroup_morphism(z2, p, [0, 1]))
    assert phi.mapping == (0, 1, 2)


def test_universal_extension_constant():
    z2 = make_z2()
    sl2 = ORDERED_FIXTURES["SL2"]()
    phi = universal_extension(z2, sl2, semigroup_morphism(z2, sl2, [1, 1]))
    assert phi.mapping == (1, 1, 1)


def test_universal_extension_requires_joins():
    z2 = make_z2()
    lz2 = make_lz2()
    # the only morphisms into LZ2 are constants; joins still fail
    f = semigroup_morphism(z2, lz2, [0, 0])
    with pytest.raises(NoJoin):
        universal_extension(z2, lz2, f)


def test_universal_extension_all_small_morphisms():
    sources = [validate_semigroup(1, [[0]])]
    for table in _all_tables(2):
        sources.append(validate_semigroup(2, table))
    for name in JOIN_CLOSED:
        target = ORDERED_FIXTURES[name]()
        for f_sg in sources:
            for mapping in _all_maps(f_sg.size, target.size):
                if not _is_morphism(f_sg, target, mapping):
                    continue
                phi = universal_extension(
                    f_sg, target, semigroup_morphism(f_sg, target, mapping)
                )
                for x in range(f_sg.size):
                    assert phi.mapping[x] == mapping[x]


def _all_tables(n):
    import itertools

    for flat in itertools.product(range(n), repeat=n * n):
        table = [flat[i * n : (i + 1) * n] for i in range(n)]
        if all(
            table[table[i][j]][k] == table[i][table[j][k]]
            for i in range(n)
            for j in range(n)
            for k in range(n)
        ):
            yield table


def _all_maps(srcn, tgtn):
    import itertools

    return itertools.product(range(tgtn), repeat=srcn)


def _is_morphism(f_sg, target, mapping):
    return all(
        mapping[f_sg.table[x][y]] == target.table[mapping[x]][mapping[y]]
        for x in range(f_sg.size)
        for y in range(f_sg.size)
    )


def test_unordered_deciders():
    assert is_group(make_z2()) and is_group(make_z3())
    assert not is_group(make_lz2_sg())
    assert is_left_group(make_lz2_sg())
    assert is_left_group(make_z2())
    assert not is_left_group(make_n2_sg())
    assert is_completely_regular_semigroup(make_lz2_sg())
    assert not is_completely_regular_semigroup(make_n2_sg())


def test_group_decider_against_identity_inverse_oracle():
    # independent route: a finite semigroup is a group iff it has a
    # two-sided identity and every element an inverse
    def oracle(sg):
        n, t = sg.size, sg.table
        for e in range(n):
            if all(t[e][x] == x == t[x][e] for x in range(n)):
                return all(
                    any(t[x][y] == e and t[y][x] == e for y in range(n))
                    for x in range(n)
                )
        return False

    for table in _all_tables(2):
        sg = validate_semigroup(2, table)
        assert is_group(sg) == oracle(sg)


def test_power_correspondence_examples():
    result = power_correspondence_check(make_z2(), "t_simple")
    assert result.agree and all(c.holds for c in result.conditions)
    result = power_correspondence_check(make_lz2_sg(), "t_simple")
    assert result.agree and not any(c.holds for c in result.conditions)
    result = power_correspondence_check(make_n2_sg(), "completely_regular")
    assert result.agree and not any(c.holds for c in result.conditions)
    result = power_correspondence_check(make_lz2_sg(), "left_group_like")
    assert result.agree and all(c.holds for c in result.conditions)
    with pytest.raises(UnknownPredicate):
        power_correspondence_check(make_z2(), "frobnication")


def test_power_structure_against_the_per_cell_oracle():
    """P(F) for every F of order <= 3, every 100th F of order 4, one F
    with display names and the Brandt semigroup B2 of order 5 has the
    table, order pairs and names of the per-cell construction."""
    b2 = [list(map(int, row)) for row in ("00000", "00012", "01200", "00034", "03400")]
    semigroups = [f for n in (1, 2, 3) for f in enumerate_semigroups(n)]
    semigroups += list(enumerate_semigroups(4))[::100]
    semigroups.append(validate_semigroup(3, make_z3().table, names=("e", "a", "b")))
    semigroups.append(validate_semigroup(5, b2))
    assert len(semigroups) == 1 + 8 + 113 + 35 + 1 + 1
    assert power_ordered_semigroup(semigroups[-1]).size == 31
    for f in semigroups:
        p = power_ordered_semigroup(f)
        assert (p.table, p.order_pairs(), p.names) == power_oracle(f), f.table
