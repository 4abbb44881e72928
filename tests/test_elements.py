"""The group component and the completely regular witness laws."""

import pytest

from ordsgp import (
    classify,
    enumerate_ordered_semigroups,
    group_component,
    induced_substructure,
)
from ordsgp.core import mask_of
from ordsgp.elements import COMPLETELY_REGULAR, idempotent_mask, witness_scan
from ordsgp.errors import NotIdempotent

from conftest import all_ordered_fixtures, make_pz2, make_sl2, make_t1


def test_group_component_examples():
    sl2 = make_sl2()
    assert group_component(sl2, 1) == 0b010
    assert group_component(sl2, 0) == 0b001
    pz2 = make_pz2()
    assert group_component(pz2, 0) == 0b111
    t1 = make_t1()
    assert group_component(t1, 0) == 0b1


def test_group_component_rejects_non_idempotent():
    pz2 = make_pz2()
    with pytest.raises(NotIdempotent):
        group_component(pz2, 1)


def test_group_component_contains_idempotent_and_is_group_like():
    # on completely regular fixtures, G_e is a group like ordered subsemigroup
    for name, s in all_ordered_fixtures():
        report = classify(s)
        if not report.verdicts["completely_regular"].holds:
            continue
        for e in range(s.size):
            if not (idempotent_mask(s) >> e) & 1:
                continue
            g = group_component(s, e)
            assert (g >> e) & 1, name
            sub = induced_substructure(s, g)
            assert classify(sub).verdicts["group_like"].holds, (name, e)


def test_group_component_against_definition():
    # brute force of G_e = {a : a <= ea, a <= ae, and e <= za, e <= az for
    # one z} at every ordered idempotent of every structure of order <= 3
    for n in (1, 2, 3):
        for s in enumerate_ordered_semigroups(n):
            le, tb = s.leq, s.table
            for e in range(n):
                if not le[e][tb[e][e]]:
                    continue
                want = mask_of(
                    a
                    for a in range(n)
                    if le[a][tb[e][a]]
                    and le[a][tb[a][e]]
                    and any(le[e][tb[z][a]] and le[e][tb[a][z]] for z in range(n))
                )
                assert group_component(s, e) == want, (s.table, s.leq, e)


def test_completely_regular_witness_laws():
    # for every completely regular element: a shared x with a <= a x a^2 and
    # a <= a^2 x a, plus the constructive idempotent e with a <= ea, a <= ae
    for name, s in all_ordered_fixtures():
        for a in range(s.size):
            holds, _, found = witness_scan(s, ((a,),), COMPLETELY_REGULAR[1], True)
            if not holds:
                continue
            tb, le = s.table, s.leq
            aa = tb[a][a]
            assert any(
                le[a][tb[tb[a][x]][aa]] and le[a][tb[tb[aa][x]][a]] for x in range(s.size)
            ), (name, a)
            t = found[(a,)][0]
            e = tb[tb[tb[tb[aa][t]][aa]][t]][aa]
            assert le[e][tb[e][e]], (name, a)
            assert le[a][tb[e][a]] and le[a][tb[a][e]], (name, a)
