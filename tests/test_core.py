"""Structure validation and the primitive set operators."""

import itertools
import random

import pytest

from ordsgp import (
    OrderedSemigroup,
    down_closure,
    group_component,
    idempotent_ideal_identities,
    induced_substructure,
    join,
    validate_semigroup,
    validate_structure,
)
from ordsgp.errors import (
    EmptySet,
    NotAntisymmetric,
    NotAssociative,
    NotClosed,
    NotCompatible,
    NotTransitive,
)

from ordsgp.core import _check_associative, product_mask
from ordsgp.enumeration import all_posets

from conftest import all_ordered_fixtures, make_lz2, make_sl2
from order4_oracles import associativity_oracle, compatibility_oracle, dual_structure


def brute_valid(size, table, pairs):
    """Independent oracle: check every axiom by direct triple scans."""
    leq = [[i == j for j in range(size)] for i in range(size)]
    for a, b in pairs:
        leq[a][b] = True
    for i in range(size):
        for j in range(size):
            for k in range(size):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    return False
                if leq[i][j] and leq[j][k] and not leq[i][k]:
                    return False
            if i != j and leq[i][j] and leq[j][i]:
                return False
    for a in range(size):
        for b in range(size):
            if a != b and leq[a][b]:
                for c in range(size):
                    if not leq[table[c][a]][table[c][b]]:
                        return False
                    if not leq[table[a][c]][table[b][c]]:
                        return False
    return True


def test_trivial_structure():
    s = validate_structure(1, [[0]])
    assert s.size == 1
    assert s.leq[0][0]


def test_sl2_all_triples_pass():
    table = [[0, 0], [0, 1]]
    assert brute_valid(2, table, [(0, 1)])
    s = validate_structure(2, table, [(0, 1)])
    assert s.leq[0][1] and not s.leq[1][0]


def test_min_under_dual_chain_is_valid():
    # min is monotone under either chain
    table = [[0, 0], [0, 1]]
    assert brute_valid(2, table, [(1, 0)])
    s = validate_structure(2, table, [(1, 0)])
    assert s.leq[1][0]


def test_left_zero_with_chain_is_valid():
    table = [[0, 0], [1, 1]]
    assert brute_valid(2, table, [(0, 1)])
    validate_structure(2, table, [(0, 1)])


def test_not_associative():
    # (1*0)*1 = 0*1 = 1 but 1*(0*1) = 1*1 = 0
    with pytest.raises(NotAssociative) as err:
        validate_structure(2, [[0, 1], [0, 0]], [])
    assert err.value.triple == (1, 0, 1)
    assert not brute_valid(2, [[0, 1], [0, 0]], [])


def test_not_antisymmetric():
    with pytest.raises(NotAntisymmetric) as err:
        validate_structure(2, [[0, 0], [0, 1]], [(0, 1), (1, 0)])
    assert err.value.pair == (0, 1)


def test_not_transitive_without_closure():
    table = [[min(i, j) for j in range(3)] for i in range(3)]
    with pytest.raises(NotTransitive):
        validate_structure(3, table, [(0, 1), (1, 2)])


def test_close_order_takes_transitive_closure():
    table = [[min(i, j) for j in range(3)] for i in range(3)]
    s = validate_structure(3, table, [(0, 1), (1, 2)], close_order=True)
    assert s.leq[0][2]


def test_not_compatible():
    # Z2 with a chain: 0 <= 1 forces 1*0 <= 1*1, i.e. 1 <= 0
    with pytest.raises(NotCompatible) as err:
        validate_structure(2, [[0, 1], [1, 0]], [(0, 1)])
    a, b, c, side = err.value.witness
    assert (a, b) == (0, 1)
    assert not brute_valid(2, [[0, 1], [1, 0]], [(0, 1)])
    # one side fails alone: here 0 <= 2 needs 0*1 = 0 <= 1 = 2*1, which the
    # order lacks, while every left product agrees; transposed, the left fails
    table = [[0, 0, 0], [0, 0, 0], [0, 1, 2]]
    transposed = [list(col) for col in zip(*table)]
    for t, failing in ((table, "right"), (transposed, "left")):
        with pytest.raises(NotCompatible) as err:
            validate_structure(3, t, [(0, 2)])
        assert err.value.witness == (0, 2, 1, failing)


def test_input_shape_errors():
    with pytest.raises(ValueError):
        validate_structure(0, [])
    with pytest.raises(ValueError):
        validate_structure(2, [[0, 0]])
    with pytest.raises(ValueError):
        validate_structure(2, [[0, 2], [0, 1]])
    with pytest.raises(ValueError):
        validate_structure(2, [[0, 0], [0, 1]], [(0, 5)])
    with pytest.raises(ValueError):
        validate_structure(2, [[0, 0], [0, 1]], names=["only-one"])


def test_table_entries_must_be_integers():
    # int() would truncate 0.9 and 1.7 to the table ((0, 0), (0, 1))
    with pytest.raises(ValueError, match=r"table row 0 entry 1 is not an integer: 0\.9"):
        validate_semigroup(2, [[0, 0.9], [0, 1.7]])
    with pytest.raises(ValueError, match="table row 1 entry 0 is not an integer: '0'"):
        validate_semigroup(2, [[0, 0], ["0", 1]])


def test_rows_of_exact_ints_are_kept():
    # a tuple of ints is shared as it is; any other row is converted
    row = (0, 0)
    f = validate_semigroup(2, (row, [0, 1]))
    assert f.table[0] is row and f.table[1] == (0, 1)
    f = validate_semigroup(2, ((True, False), (False, True)))
    assert f.table == ((1, 0), (0, 1))
    assert {type(v) for r in f.table for v in r} == {int}
    with pytest.raises(ValueError, match=r"table entry \(1,0\) out of range: -1"):
        validate_semigroup(2, ((0, 0), (-1, 1)))


def test_associativity_check_against_the_triple_loop_up_to_order_3():
    """Every one of the 1 + 16 + 19,683 tables of order <= 3: the same
    verdict and the same least triple as the lexicographic triple loop."""
    counts = {True: 0, False: 0}
    for n in (1, 2, 3):
        for flat in itertools.product(range(n), repeat=n * n):
            table = tuple(flat[i * n : (i + 1) * n] for i in range(n))
            try:
                _check_associative(n, table)
                got = None
            except NotAssociative as exc:
                got = exc.triple
            assert got == associativity_oracle(table), table
            counts[got is None] += 1
    assert counts == {True: 1 + 8 + 113, False: 19700 - 122}


def test_order_pairs_must_be_integers():
    # int() would read (0.5, 1.2) as the pair 0 <= 1
    with pytest.raises(ValueError, match=r"order pair \(0\.5,1\.2\) is not a pair of integers"):
        validate_structure(2, [[0, 0], [0, 1]], [(0.5, 1.2)])


def _outcome(call):
    """A validator call's result, or its exception type and witness."""
    try:
        return call()
    except (NotAntisymmetric, NotTransitive, NotCompatible) as exc:
        return type(exc), vars(exc)


def test_validator_against_brute_force_on_every_pair_up_to_order_3():
    """Every (table, poset) pair of order <= 3, compatible or not, through
    validate_structure twice: the verdict is brute_valid's, the
    ``NotCompatible`` witness is ``compatibility_oracle``'s, and the second
    call (a hit in the order memo) gives the first call's result."""
    from ordsgp import enumerate_semigroups
    from ordsgp.core import _partial_order, leq_pairs

    for n in (1, 2, 3):
        all_posets(n)  # fills the order memo itself on a cold start
    _partial_order.cache_clear()
    counts = {True: 0, False: 0}
    for n in (1, 2, 3):
        orders = [(leq, leq_pairs(leq)) for leq in all_posets(n)]
        for f in enumerate_semigroups(n):
            for leq, pairs in orders:
                first = _outcome(lambda: validate_structure(n, f.table, pairs))
                again = _outcome(lambda: validate_structure(n, f.table, pairs))
                assert first == again, (f.table, pairs)
                valid = isinstance(first, OrderedSemigroup)
                assert valid == brute_valid(n, f.table, pairs), (f.table, pairs)
                assert not valid or first.order_pairs() == pairs
                witness = None if valid else first[1]["witness"]
                assert witness == compatibility_oracle(f.table, leq), (f.table, pairs)
                counts[valid] += 1
    assert counts == {True: 1 + 20 + 971, False: 0 + 4 + 113 * 19 - 971}
    # one miss per distinct order: the memo key is the normalized input
    assert _partial_order.cache_info().misses == 1 + 3 + 19

    sl2 = [[0, 0], [0, 1]]
    ch3 = [[min(i, j) for j in range(3)] for i in range(3)]
    for _ in range(2):
        assert _outcome(lambda: validate_structure(2, sl2, [(0, 1), (1, 0)])) == (
            NotAntisymmetric,
            {"pair": (0, 1)},
        )
        assert _outcome(lambda: validate_structure(3, ch3, [(0, 1), (1, 2)])) == (
            NotTransitive,
            {"triple": (0, 1, 2)},
        )
        closed = validate_structure(3, ch3, [(0, 1), (1, 2)], close_order=True)
        assert closed.order_pairs() == [(0, 1), (0, 2), (1, 2)]
    assert not brute_valid(2, sl2, [(0, 1), (1, 0)])
    assert not brute_valid(3, ch3, [(0, 1), (1, 2)])
    assert brute_valid(3, ch3, closed.order_pairs())


def _hasse(leq):
    """The strict pairs of an order that are not the composite of two
    strict pairs, sorted."""
    n = len(leq)
    strict = {(a, b) for a in range(n) for b in range(n) if a != b and leq[a][b]}
    composite = {(a, c) for a, b in strict for b2, c in strict if b == b2}
    return sorted(strict - composite)


def test_certified_covers_are_the_hasse_diagram():
    """The covers that ``_partial_order`` certifies, for every poset of
    order 4 and P(F)'s inclusion order at |F| <= 4, are the strict pairs
    less their composites; the inclusion order has n * 2^(n-1) - n."""
    from ordsgp.enumeration import _certified_orders
    from ordsgp.power import _inclusion

    certificates = [*_certified_orders(4), *(_inclusion(n)[2] for n in (1, 2, 3, 4))]
    assert len(certificates) == 219 + 4
    for leq, covers in certificates:
        assert list(covers) == _hasse(leq), leq
    assert [len(_inclusion(n)[2][1]) for n in (1, 2, 3, 4, 5)] == [0, 2, 9, 28, 75]


def test_fault_precedence():
    # the table is checked before the order, and the order before the names
    with pytest.raises(NotAssociative):
        validate_structure(2, [[1, 0], [0, 0]], [(0, 5)])
    with pytest.raises(ValueError, match="order pair"):
        validate_structure(2, [[0, 0], [0, 1]], [(0, 5)], names=["only-one"])


def test_down_closure_examples():
    sl2 = make_sl2()
    assert down_closure(sl2, sl2.subset([1])) == 0b11
    assert down_closure(sl2, sl2.subset([])) == 0
    lz2 = make_lz2()
    assert down_closure(lz2, lz2.subset([0])) == 0b01


def test_set_product_examples():
    sl2 = make_sl2()
    assert product_mask(sl2, 0b11, 0b10) == 0b11
    assert product_mask(sl2, 0, 0b10) == 0
    lz2 = make_lz2()
    assert product_mask(lz2, 0b01, 0b11) == 0b01


def test_closure_operator_laws_on_fixtures():
    rng = random.Random(7)
    for name, s in all_ordered_fixtures():
        for _ in range(20):
            members = [i for i in range(s.size) if rng.random() < 0.5]
            x = s.subset(members)
            cx = down_closure(s, x)
            assert x & ~cx == 0, name  # extensive
            assert down_closure(s, cx) == cx, name  # idempotent
            y = s.subset([i for i in range(s.size) if rng.random() < 0.5])
            assert cx & ~down_closure(s, x | y) == 0, name  # monotone


def test_set_product_is_associative_setwise():
    rng = random.Random(11)
    for name, s in all_ordered_fixtures():
        for _ in range(10):
            a, b, c = (rng.getrandbits(s.size) for _ in range(3))
            left = product_mask(s, product_mask(s, a, b), c)
            right = product_mask(s, a, product_mask(s, b, c))
            assert left == right, name


def test_compatibility_reasserts_post_construction():
    for name, s in all_ordered_fixtures():
        for a in range(s.size):
            for b in range(s.size):
                if s.leq[a][b]:
                    for c in range(s.size):
                        assert s.leq[s.table[c][a]][s.table[c][b]], name
                        assert s.leq[s.table[a][c]][s.table[b][c]], name


def test_induced_substructure_examples():
    sl2 = make_sl2()
    sub = induced_substructure(sl2, sl2.subset([1]))
    assert sub.size == 1 and sub.table == ((0,),)
    whole = induced_substructure(sl2, sl2.subset([0, 1]))
    assert whole.table == sl2.table and whole.leq == sl2.leq
    lz2 = make_lz2()
    assert induced_substructure(lz2, lz2.subset([0, 1])).table == lz2.table


def test_induced_substructure_not_closed():
    z2ish = validate_structure(2, [[0, 1], [1, 0]])
    with pytest.raises(NotClosed) as err:
        induced_substructure(z2ish, z2ish.subset([1]))
    assert err.value.pair == (1, 1)
    with pytest.raises(EmptySet):
        induced_substructure(z2ish, z2ish.subset([]))


_MASK_ARGUMENTS = {
    "down_closure": down_closure,
    "induced_substructure": induced_substructure,
}


@pytest.mark.parametrize("call", _MASK_ARGUMENTS.values(), ids=_MASK_ARGUMENTS)
@pytest.mark.parametrize("outside", ["-1", "past", "float"])
def test_mask_arguments_outside_the_carrier_are_refused(call, outside):
    """A subset mask that is negative, holds a bit past the carrier or is
    not an integer is one ValueError naming it, never the closure of some
    other subset, a bare IndexError or a bare TypeError."""
    s = validate_structure(2, [[0, 0], [0, 1]], [(0, 1)])
    mask, message = {
        "-1": (-1, "mask -1 is not a subset of the carrier 0..1"),
        "past": (0b100, "mask 4 is not a subset of the carrier 0..1"),
        "float": (1.0, "mask entry 0 is not an integer: 1.0"),
    }[outside]
    with pytest.raises(ValueError, match=message):
        call(s, mask)


def test_dual_structure_reverses_products():
    lz2 = make_lz2()
    d = dual_structure(lz2)
    # the dual of a left-zero band is the right-zero band
    assert d.table == ((0, 1), (0, 1))
    assert dual_structure(d) == lz2


def _structures_up_to_3():
    from ordsgp import enumerate_ordered_semigroups

    for n in (1, 2, 3):
        yield from enumerate_ordered_semigroups(n)


def _as_mask(members):
    return sum(1 << m for m in set(members))


def test_setwise_products_against_set_oracles():
    """Every product-based primitive against a set comprehension over the
    table and the order, on every structure of order <= 3 and every
    nonempty sub-carrier mask: among them ``_products``, the one builder of
    (b, Tb, bT)."""
    from ordsgp.classification import _closed
    from ordsgp.core import _products, left_multiples, right_multiples, sandwich_mask
    from ordsgp.ideals import _filter_masks

    count = 0
    for s in _structures_up_to_3():
        n, tb, leq = s.size, s.table, s.leq
        carrier = range(n)

        for a in carrier:
            assert left_multiples(s)[a] == _as_mask(tb[x][a] for x in carrier)
            assert right_multiples(s)[a] == _as_mask(tb[a][x] for x in carrier)
            for b in carrier:
                assert sandwich_mask(s, a, b) == _as_mask(tb[tb[a][x]][b] for x in carrier)

        for t in range(1, 1 << n):
            ts = [x for x in carrier if (t >> x) & 1]
            closed = all((t >> tb[x][y]) & 1 for x in ts for y in ts)
            assert bool(_closed(s, t)) == closed
            expected = [
                (b, _as_mask(tb[x][b] for x in ts), _as_mask(tb[b][x] for x in ts)) for b in ts
            ]
            assert list(_products(s, t)) == expected, (s.table, t)

        def is_filter(f):
            members = [x for x in carrier if (f >> x) & 1]
            return (
                all((f >> tb[x][y]) & 1 for x in members for y in members)
                and all(
                    (f >> x) & 1 and (f >> y) & 1
                    for x in carrier
                    for y in carrier
                    if (f >> tb[x][y]) & 1
                )
                and all((f >> y) & 1 for x in members for y in carrier if leq[x][y])
            )

        filters = [f for f in range(1, 1 << n) if is_filter(f)]
        for a in carrier:
            containing = [f for f in filters if (f >> a) & 1]
            least = min(containing, key=int.bit_count)
            assert all(least & ~f == 0 for f in containing)
            assert _filter_masks(s)[a] == least
        count += 1
    assert count == 1 + 20 + 971


_ELEMENT_ARGUMENTS = {
    "group_component": group_component,
    "idempotent_ideal_identities(x, 0)": lambda s, x: idempotent_ideal_identities(s, x, 0),
    "idempotent_ideal_identities(0, x)": lambda s, x: idempotent_ideal_identities(s, 0, x),
    "join(x, 0)": lambda s, x: join(s, x, 0),
    "join(0, x)": lambda s, x: join(s, 0, x),
    "subset": lambda s, x: s.subset([x]),
}


@pytest.mark.parametrize("call", _ELEMENT_ARGUMENTS.values(), ids=_ELEMENT_ARGUMENTS)
@pytest.mark.parametrize("outside", ["-1", "size", "float", "str"])
def test_element_arguments_outside_the_carrier_are_refused(call, outside):
    """An element index outside 0..n-1 is a ValueError, never an answer for
    another element (Python's negative indexing) or a bare IndexError, and
    so is an element that is not an integer, never a bare TypeError."""
    # the semilattice 0 < 1: regular, 0 and 1 idempotent, every join exists
    s = validate_structure(2, [[0, 0], [0, 1]], [(0, 1)])
    x, message = {
        "-1": (-1, "element -1 out of range"),
        "size": (s.size, f"element {s.size} out of range"),
        "float": (1.0, "not an integer: 1.0"),
        "str": ("1", "not an integer: '1'"),
    }[outside]
    with pytest.raises(ValueError, match=message):
        call(s, x)


_SIZE_ARGUMENTS = {
    "validate_semigroup(2.0)": (
        lambda: validate_semigroup(2.0, [[0, 0], [0, 0]]),
        "size entry 0 is not an integer: 2.0",
    ),
    "validate_semigroup('2')": (
        lambda: validate_semigroup("2", [[0, 0], [0, 0]]),
        "size entry 0 is not an integer: '2'",
    ),
    "validate_structure(1.0)": (
        lambda: validate_structure(1.0, [[0]]),
        "size entry 0 is not an integer: 1.0",
    ),
    "all_posets(-1)": (lambda: all_posets(-1), "n must be at least 0, got -1"),
    "all_posets(2.0)": (lambda: all_posets(2.0), "n entry 0 is not an integer: 2.0"),
}


@pytest.mark.parametrize("call, message", _SIZE_ARGUMENTS.values(), ids=_SIZE_ARGUMENTS)
def test_size_arguments_that_are_not_counts_are_refused(call, message):
    """A size that is not an integer is a ValueError naming it, never a bare
    TypeError, and so is a negative number of points for ``all_posets``,
    never one empty poset; 2.0 does not reach the cached posets of 2."""
    all_posets(2)
    with pytest.raises(ValueError, match=message):
        call()


def test_a_bool_size_counts_as_the_integer():
    """True is read as 1, as it is in a table, and the size is an int."""
    f = validate_semigroup(True, [[0]])
    assert f.size == 1 and type(f.size) is int
    s = validate_structure(True, [[0]])
    assert s.size == 1 and type(s.size) is int
    assert all_posets(True) == all_posets(1)
