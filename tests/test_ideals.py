"""Ideals, Green's relations, filters, and the ideal identities."""

import collections
import itertools

import pytest

from ordsgp import (
    Side,
    complete_semilattice_congruences,
    down_closure,
    enumerate_ideals,
    enumerate_ordered_semigroups,
    green_relation,
    idempotent_ideal_identities,
    is_ideal,
    n_relation,
    principal_ideal,
    serialize_document,
    set_product,
    validate_structure,
)
from ordsgp.core import mask_of
from ordsgp.errors import EmptySet, NotIdempotent, NotPartition, NotRegular, SizeLimit
from ordsgp.ideals import _filter_masks

from conftest import (
    all_ordered_fixtures,
    differential_structures,
    make_ch3,
    make_lz2,
    make_n2,
    make_sl2,
    make_t1,
)
from order4_oracles import ideal_oracle


def classes(rel):
    return [sorted(c) for c in rel.classes]


def test_principal_ideal_examples():
    sl2 = make_sl2()
    assert principal_ideal(sl2, 0, Side.LEFT).members == {0}
    assert principal_ideal(sl2, 1, Side.LEFT).members == {0, 1}
    lz2 = make_lz2()
    assert principal_ideal(lz2, 0, Side.LEFT).members == {0, 1}
    assert principal_ideal(lz2, 0, Side.RIGHT).members == {0}


def test_principal_ideal_is_an_ideal_containing_generator():
    for name, s in all_ordered_fixtures():
        for side in Side:
            for a in range(s.size):
                ideal = principal_ideal(s, a, side)
                assert a in ideal, name
                assert is_ideal(s, ideal, side), name


def test_is_ideal_examples():
    sl2 = make_sl2()
    assert is_ideal(sl2, sl2.subset([0]), Side.LEFT).holds
    check = is_ideal(sl2, sl2.subset([1]), Side.LEFT)
    assert not check.holds
    assert check.violation == (0, 1)  # 0*1 = 0 escapes {1}
    assert is_ideal(sl2, sl2.subset(range(2)), Side.TWO_SIDED).holds
    with pytest.raises(EmptySet):
        is_ideal(sl2, sl2.subset([]), Side.LEFT)


def test_is_ideal_downward_violation():
    # the null semigroup with 1 <= 0: {0} absorbs every product, and 1 lies
    # below its member 0
    s = validate_structure(2, [[0, 0], [0, 0]], [(1, 0)])
    check = is_ideal(s, s.subset([0]), Side.LEFT)
    assert (check.holds, check.reason, check.violation) == (False, "not downward closed", (1, 0))


def ideal_by_definition(s, members, side):
    """(holds, reason, violation) of ``is_ideal``, read from the definition:
    left absorption's least (x, i), x-major; then right absorption's least
    (i, x), i-major; then the least t outside I below a member, with the
    least such member."""
    carrier = range(s.size)
    if side in (Side.LEFT, Side.TWO_SIDED):
        for x, i in itertools.product(carrier, members):
            if s.prod(x, i) not in members:
                return False, "left absorption fails", (x, i)
    if side in (Side.RIGHT, Side.TWO_SIDED):
        for i, x in itertools.product(members, carrier):
            if s.prod(i, x) not in members:
                return False, "right absorption fails", (i, x)
    for t, i in itertools.product(carrier, members):
        if t not in members and s.le(t, i):
            return False, "not downward closed", (t, i)
    return True, "", None


def test_is_ideal_against_the_definition_up_to_order_3():
    """Every structure of order <= 3, every nonempty subset and every side."""
    outcomes = collections.Counter()
    for n in (1, 2, 3):
        for s in enumerate_ordered_semigroups(n):
            for mask, side in itertools.product(range(1, 1 << n), Side):
                members = [x for x in range(n) if (mask >> x) & 1]
                check = is_ideal(s, s.subset(members), side)
                expected = ideal_by_definition(s, members, side)
                assert (check.holds, check.reason, check.violation) == expected, (
                    serialize_document(s),
                    members,
                    side,
                )
                outcomes[expected[1]] += 1
    assert outcomes == {
        "": 6518,
        "left absorption fails": 7220,
        "right absorption fails": 4276,
        "not downward closed": 2560,
    }


def test_enumerate_ideals_examples():
    sl2 = make_sl2()
    assert [sorted(i) for i in enumerate_ideals(sl2, Side.LEFT)] == [[0], [0, 1]]
    t1 = make_t1()
    assert [sorted(i) for i in enumerate_ideals(t1, Side.LEFT)] == [[0]]
    lz2 = make_lz2()
    assert [sorted(i) for i in enumerate_ideals(lz2, Side.LEFT)] == [[0, 1]]


def test_enumerate_ideals_matches_subset_scan():
    """Every one-sided and two-sided ideal, order included, against a scan
    of every subset of the carrier."""
    count = 0
    for s in differential_structures():
        for side in Side:
            found = [ideal.mask for ideal in enumerate_ideals(s, side)]
            assert found == ideal_oracle(s, side), (side, serialize_document(s))
        count += 1
    assert count == 1 + 20 + 971 + 1000


def test_enumerate_ideals_size_guard(monkeypatch):
    monkeypatch.setenv("ORDSGP_LIMITS", "ideals=2")
    ch3 = make_ch3()
    with pytest.raises(SizeLimit):
        enumerate_ideals(ch3, Side.LEFT)


def test_principal_ideal_minimality_against_enumeration():
    """Each principal ideal is the meet of the ideals that hold its
    generator, on the fixtures and on every structure of
    ``differential_structures``."""
    structures = itertools.chain(all_ordered_fixtures(), (("", s) for s in differential_structures()))
    for name, s in structures:
        if s.size > 5:
            continue
        for side in Side:
            ideals = enumerate_ideals(s, side)
            for a in range(s.size):
                meet = None
                for ideal in ideals:
                    if a in ideal:
                        meet = ideal.mask if meet is None else meet & ideal.mask
                assert meet == principal_ideal(s, a, side).mask, (name or serialize_document(s), a, side)


def test_regular_case_left_ideal_formula():
    # on regular structures L(a) = (Sa]
    from ordsgp.elements import is_regular_structure

    for name, s in all_ordered_fixtures():
        if not is_regular_structure(s):
            continue
        for a in range(s.size):
            sa = set_product(s, s.subset(range(s.size)), s.subset([a]))
            assert principal_ideal(s, a, Side.LEFT) == down_closure(s, sa), name


def test_green_examples():
    lz2 = make_lz2()
    assert classes(green_relation(lz2, "L")) == [[0, 1]]
    assert classes(green_relation(lz2, "R")) == [[0], [1]]
    assert classes(green_relation(lz2, "H")) == [[0], [1]]
    assert classes(green_relation(lz2, "J")) == [[0, 1]]
    sl2 = make_sl2()
    for kind in "LRJH":
        assert classes(green_relation(sl2, kind)) == [[0], [1]]
    t1 = make_t1()
    for kind in "LRJH":
        assert classes(green_relation(t1, kind)) == [[0]]
    with pytest.raises(ValueError):
        green_relation(t1, "D")


def test_green_refinement_properties():
    for name, s in all_ordered_fixtures():
        l, r, j, h = (green_relation(s, k) for k in "LRJH")
        assert h.refines(l) and h.refines(r), name
        assert l.refines(j) and r.refines(j), name
        # H is the common refinement: same(a,b) in H iff in both L and R
        for a in range(s.size):
            for b in range(s.size):
                assert h.same(a, b) == (l.same(a, b) and r.same(a, b)), name


def test_refinement_refuses_a_relation_on_another_structure():
    """SL2's L and LZ2's L partition carriers of one size, but not the same
    carrier: ``refines`` is one NotPartition, never an answer."""
    sl2, lz2 = make_sl2(), make_lz2()
    with pytest.raises(NotPartition, match="bound to a different structure"):
        green_relation(sl2, "L").refines(green_relation(lz2, "L"))
    # an equal structure built apart is the same carrier
    assert green_relation(sl2, "L").refines(green_relation(make_sl2(), "J"))


def test_class_masks_and_refinement_match_the_loops():
    """``masks``, ``classes`` and ``refines`` against loops over the
    carrier and the classes, for Green's L, R, J and H, for N and for every
    complete semilattice congruence of the 1,992 differential structures."""
    count = 0
    for s in differential_structures():
        named = [green_relation(s, kind) for kind in "LRJH"] + [n_relation(s)]
        relations = named + complete_semilattice_congruences(s)
        for rel in relations:
            ids = rel.class_ids
            masks = [mask_of(x for x in range(s.size) if ids[x] == c) for c in range(max(ids) + 1)]
            assert list(rel.masks) == masks, (s.table, s.leq, ids)
            assert [(c.structure, c.mask) for c in rel.classes] == [(s, m) for m in masks]
        for rel, other in itertools.product(relations, named):
            inside = all(len({other.class_ids[m] for m in c}) == 1 for c in rel.classes)
            assert rel.refines(other) == inside, (s.table, s.leq, rel.class_ids, other.class_ids)
            assert other.refines(rel) == all(
                len({rel.class_ids[m] for m in c}) == 1 for c in other.classes
            )
        count += 1
    assert count == 1992


_BAD_SIDES = {
    "is_ideal": (lambda s: is_ideal(s, s.subset([0]), "bogus"), "'bogus'"),
    "enumerate_ideals": (lambda s: enumerate_ideals(s, "nonsense"), "'nonsense'"),
    "principal_ideal": (lambda s: principal_ideal(s, 0, "left"), "'left'"),
}


@pytest.mark.parametrize("call, value", _BAD_SIDES.values(), ids=_BAD_SIDES)
def test_sides_that_are_not_side_members_are_refused(call, value):
    """A side that is not a Side member, its value string included, is one
    ValueError naming it, never an answer for some side, and nothing is
    cached under it.  On Z2, {0} is no ideal of any side."""
    z2 = validate_structure(2, [[0, 1], [1, 0]])
    with pytest.raises(ValueError, match=f"^side must be a Side, got {value}$"):
        call(z2)
    assert not [key for key in z2._cache if isinstance(key, tuple) and key[0] == "principal"]
    assert not any(is_ideal(z2, z2.subset([0]), side) for side in Side)


def test_principal_filter_examples():
    assert _filter_masks(make_sl2()) == (0b11, 0b10)  # N(0) = {0, 1}, N(1) = {1}
    assert _filter_masks(make_lz2())[0] == 0b11


def test_filter_axioms_hold():
    for name, s in all_ordered_fixtures():
        for a in range(s.size):
            f = _filter_masks(s)[a]
            members = {x for x in range(s.size) if (f >> x) & 1}
            assert a in members, name
            for x in members:
                for y in members:
                    assert s.prod(x, y) in members, name  # subsemigroup
            for x in range(s.size):
                for y in range(s.size):
                    if s.prod(x, y) in members:
                        assert x in members and y in members, name  # prime
            for c in members:
                for x in range(s.size):
                    if s.le(c, x):
                        assert x in members, name  # upward closed


def test_n_relation_examples():
    assert n_relation(make_sl2()).num_classes() == 2
    assert n_relation(make_lz2()).num_classes() == 1
    assert n_relation(make_t1()).num_classes() == 1


def test_ideal_identities_examples():
    sl2 = make_sl2()
    assert idempotent_ideal_identities(sl2, 1, 1).agree
    t1 = make_t1()
    assert idempotent_ideal_identities(t1, 0, 0).agree
    lz2 = make_lz2()
    result = idempotent_ideal_identities(lz2, 0, 1)
    assert result.agree
    assert all(c.holds for c in result.conditions)


def test_ideal_identities_errors():
    n2 = make_n2()
    with pytest.raises(NotRegular):
        idempotent_ideal_identities(n2, 0, 0)
    sl2 = make_sl2()
    with pytest.raises(ValueError):
        # element out of range surfaces as a plain error
        principal_ideal(sl2, 9, Side.LEFT)


def test_ideal_identities_not_idempotent(b2):
    # in B2 the element 1 (= a) satisfies a*a = 0, not an ordered idempotent
    with pytest.raises(NotIdempotent):
        idempotent_ideal_identities(b2, 1, 0)
