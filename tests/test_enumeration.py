"""Exhaustive generation: counts, determinism, resume, canonical forms."""

import itertools

import pytest

from ordsgp import (
    canonical_form,
    enumerate_compatible_orders,
    enumerate_ordered_semigroups,
    enumerate_semigroups,
    serialize_document,
    transcript_hash,
    validate_semigroup,
)
from ordsgp.enumeration import all_posets, sample_ordered_semigroups
from ordsgp.errors import SizeLimit
from ordsgp.sweep import split_first_rows

from conftest import make_lz2_sg, make_t1


def naive_semigroup_count(n):
    count = 0
    for flat in itertools.product(range(n), repeat=n * n):
        table = [flat[i * n : (i + 1) * n] for i in range(n)]
        if all(
            table[table[i][j]][k] == table[i][table[j][k]]
            for i in range(n)
            for j in range(n)
            for k in range(n)
        ):
            count += 1
    return count


def test_semigroup_counts_against_naive_oracle():
    assert sum(1 for _ in enumerate_semigroups(1)) == 1 == naive_semigroup_count(1)
    assert sum(1 for _ in enumerate_semigroups(2)) == 8 == naive_semigroup_count(2)
    assert sum(1 for _ in enumerate_semigroups(3)) == 113 == naive_semigroup_count(3)


def test_semigroup_stream_is_lexicographic_and_guarded():
    flats = [tuple(v for row in sg.table for v in row) for sg in enumerate_semigroups(2)]
    assert flats == sorted(flats)
    with pytest.raises(SizeLimit):
        enumerate_semigroups(5)


def test_poset_counts():
    assert len(all_posets(1)) == 1
    assert len(all_posets(2)) == 3
    assert len(all_posets(3)) == 19
    assert len(all_posets(4)) == 219


def test_compatible_orders_examples():
    t1 = validate_semigroup(1, [[0]])
    assert len(enumerate_compatible_orders(t1)) == 1
    assert len(enumerate_compatible_orders(make_lz2_sg())) == 3
    min2 = validate_semigroup(2, [[0, 0], [0, 1]])
    assert len(enumerate_compatible_orders(min2)) == 3
    z2 = validate_semigroup(2, [[0, 1], [1, 0]])
    assert len(enumerate_compatible_orders(z2)) == 1  # discrete only


def test_discrete_order_always_compatible():
    for sg in enumerate_semigroups(3):
        orders = enumerate_compatible_orders(sg)
        discrete = tuple(
            tuple(i == j for j in range(sg.size)) for i in range(sg.size)
        )
        assert discrete in orders


def test_ordered_counts():
    assert sum(1 for _ in enumerate_ordered_semigroups(1)) == 1
    assert sum(1 for _ in enumerate_ordered_semigroups(2)) == 20
    assert sum(1 for _ in enumerate_ordered_semigroups(3)) == 971


def test_stream_determinism():
    docs1 = [serialize_document(s) for s in enumerate_ordered_semigroups(2)]
    docs2 = [serialize_document(s) for s in enumerate_ordered_semigroups(2)]
    assert docs1 == docs2
    assert transcript_hash(docs1) == transcript_hash(docs2)


def test_resume_semigroups():
    stream = enumerate_semigroups(3)
    head = [next(stream) for _ in range(40)]
    token = stream.resume_token
    tail = list(enumerate_semigroups(3, resume=token))
    assert len(head) + len(tail) == 113
    full = list(enumerate_semigroups(3))
    assert head + tail == full


def test_resume_ordered():
    stream = enumerate_ordered_semigroups(3)
    head = [next(stream) for _ in range(137)]
    token = stream.resume_token
    tail = list(enumerate_ordered_semigroups(3, resume=token))
    full = list(enumerate_ordered_semigroups(3))
    assert head + tail == full


def test_resume_token_rejects_garbage():
    with pytest.raises(ValueError):
        list(enumerate_semigroups(2, resume="bogus"))
    with pytest.raises(ValueError):
        list(enumerate_ordered_semigroups(2, resume="o2:xx:0"))
    # an order index past the table's compatible orders
    with pytest.raises(ValueError):
        list(enumerate_ordered_semigroups(2, resume="o2:0000:99"))
    # tables that are not associative
    with pytest.raises(ValueError):
        list(enumerate_ordered_semigroups(2, resume="o2:1000:0"))
    with pytest.raises(ValueError):
        list(enumerate_semigroups(2, resume="s2:1000"))


def test_first_row_split_covers_everything():
    chunks = split_first_rows(3, 4)
    assert chunks[0][0] == 0 and chunks[-1][1] == 27
    merged = []
    for chunk in chunks:
        merged.extend(enumerate_ordered_semigroups(3, first_row_range=chunk))
    full = list(enumerate_ordered_semigroups(3))
    assert merged == full  # contiguous ranges preserve the global order


def test_sampling_is_deterministic():
    a = [serialize_document(s) for s in sample_ordered_semigroups(3, 50, seed=5)]
    b = [serialize_document(s) for s in sample_ordered_semigroups(3, 50, seed=5)]
    c = [serialize_document(s) for s in sample_ordered_semigroups(3, 50, seed=6)]
    assert a == b
    assert a != c


def test_canonical_form_isomorphism_classes():
    # 8 labeled semigroups on two elements fall into 5 isomorphism classes
    keys = {canonical_form(sg) for sg in enumerate_semigroups(2)}
    assert len(keys) == 5
    # canonical form is invariant under relabeling: swapping the carrier of
    # the min table yields the max table
    min2 = validate_semigroup(2, [[0, 0], [0, 1]])
    max2 = validate_semigroup(2, [[0, 1], [1, 1]])
    assert canonical_form(min2) == canonical_form(max2)
    assert canonical_form(min2) != canonical_form(make_lz2_sg())


def test_canonical_form_ordered_distinguishes_orders():
    from ordsgp import validate_structure

    lz_discrete = validate_structure(2, [[0, 0], [1, 1]])
    lz_chain = validate_structure(2, [[0, 0], [1, 1]], [(0, 1)])
    lz_dual = validate_structure(2, [[0, 0], [1, 1]], [(1, 0)])
    assert canonical_form(lz_discrete) != canonical_form(lz_chain)
    # the two chains over a left-zero band are isomorphic via the swap
    assert canonical_form(lz_chain) == canonical_form(lz_dual)
