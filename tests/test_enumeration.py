"""Exhaustive generation: counts, determinism, resume, canonical forms."""

import hashlib
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
from ordsgp import sweep as sweep_module
from ordsgp.enumeration import (
    all_posets,
    all_semigroup_tables,
    ordered_counts_by_first_row,
    sample_ordered_semigroups,
)
from ordsgp.errors import SizeLimit
from ordsgp.sweep import parallel_sweep, split_first_rows, sweep

from conftest import make_lz2_sg, make_t1


def naive_semigroup_tables(n):
    """Every associative flat table, by brute force over all n^(n*n) tables."""
    found = []
    for flat in itertools.product(range(n), repeat=n * n):
        table = [flat[i * n : (i + 1) * n] for i in range(n)]
        if all(
            table[table[i][j]][k] == table[i][table[j][k]]
            for i in range(n)
            for j in range(n)
            for k in range(n)
        ):
            found.append(flat)
    return found


def test_semigroup_counts_against_naive_oracle():
    for n, count in [(1, 1), (2, 8), (3, 113)]:
        naive = naive_semigroup_tables(n)
        assert sum(1 for _ in enumerate_semigroups(n)) == count == len(naive)
        # the cached list is the brute-force list, in the same strictly
        # increasing order that resume tokens are bisected in
        assert list(all_semigroup_tables(n)) == naive
        assert all(a < b for a, b in zip(naive, naive[1:]))


# SHA-256 of the order-4 table list, one flat table per line
TABLES_4_SHA = "3897cf419417bcdb3de32e142bd3c24eda60127cdb8a5028a17e6ba64d75eb58"


def test_order_4_table_list_pinned():
    tables = all_semigroup_tables(4)
    assert len(tables) == 3492
    text = "\n".join("".join(map(str, flat)) for flat in tables)
    assert hashlib.sha256(text.encode()).hexdigest() == TABLES_4_SHA


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


def naive_compatible_orders(f):
    """Every poset of ``all_posets``, tested one by one: a <= b must give
    ca <= cb and ac <= bc for every c."""
    n, table = f.size, f.table
    return [
        leq
        for leq in all_posets(n)
        if all(
            leq[table[c][a]][table[c][b]] and leq[table[a][c]][table[b][c]]
            for a in range(n)
            for b in range(n)
            if a != b and leq[a][b]
            for c in range(n)
        )
    ]


def test_compatible_orders_against_naive_oracle():
    for n in (1, 2, 3, 4):
        for f in enumerate_semigroups(n):
            assert enumerate_compatible_orders(f) == naive_compatible_orders(f), f.table


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


def _resume_splits(enumerate_fn, n, cuts):
    """(head, tail, full) for a stream cut after each count in ``cuts``."""
    full = list(enumerate_fn(n))
    for cut in cuts:
        stream = enumerate_fn(n)
        head = [next(stream) for _ in range(cut)]
        yield head, list(enumerate_fn(n, resume=stream.resume_token)), full


def test_resume_semigroups():
    for head, tail, full in _resume_splits(enumerate_semigroups, 3, [40]):
        assert len(head) + len(tail) == 113
        assert head + tail == full
    # every position at order 2, the last one included
    for head, tail, full in _resume_splits(enumerate_semigroups, 2, range(1, 9)):
        assert head + tail == full


def test_resume_ordered():
    for head, tail, full in _resume_splits(enumerate_ordered_semigroups, 3, [137]):
        assert head + tail == full
    # every position at order 2: each resumes inside or at the end of a table
    for head, tail, full in _resume_splits(enumerate_ordered_semigroups, 2, range(1, 21)):
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


def _chunk_sizes(n, chunks):
    counts = ordered_counts_by_first_row(n)
    return [sum(c for row, c in counts if lo <= row < hi) for lo, hi in chunks]


def test_first_row_split_balances_work():
    # first row 0000 alone holds 27,078 of the 107,688 order-4 structures
    for workers in (2, 3, 4):
        chunks = split_first_rows(4, workers)
        assert len(chunks) == workers
        assert chunks[0][0] == 0 and chunks[-1][1] == 4**4
        assert all(lo < hi for lo, hi in chunks)
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
        sizes = _chunk_sizes(4, chunks)
        assert sum(sizes) == 107688
        assert max(sizes) < 1.05 * 107688 / workers, sizes
    # more workers than first rows: fewer ranges, none empty
    chunks = split_first_rows(2, 100)
    assert chunks[0][0] == 0 and chunks[-1][1] == 4
    assert all(size > 0 for size in _chunk_sizes(2, chunks))


def test_parallel_sweep_caps_processes_at_cpu_count(monkeypatch):
    started = []

    class SerialPool:
        """Stands in for ProcessPoolExecutor: records max_workers, starts nothing."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", SerialPool)
    report = parallel_sweep(3, 1000, bundle_ids=(), theorem_ids=())
    assert started == [2]
    serial = sweep(enumerate_ordered_semigroups(3), bundle_ids=(), theorem_ids=())
    assert report.total == serial.total == 971
    assert report.transcripts == serial.transcripts


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
