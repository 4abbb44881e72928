"""Exhaustive generation: counts, determinism, resume, canonical forms."""

import bisect
import gc
import hashlib
import itertools
import math
import random
import re
import sys
import tracemalloc

import pytest

from ordsgp import (
    enumerate_compatible_orders,
    enumerate_ordered_semigroups,
    enumerate_semigroups,
    serialize_document,
    transcript_hash,
    validate_semigroup,
    validate_structure,
)
from ordsgp import cli, core, enumeration
from ordsgp import sweep as sweep_module
from ordsgp.enumeration import (
    _labeled_tables,
    _lex_leader_tables,
    all_posets,
    all_semigroup_tables,
    ordered_offsets,
    resume_position,
    resume_token,
    sample_ordered_semigroups,
)
from ordsgp.errors import (
    BadEnumeration,
    InvariantViolation,
    NotAssociative,
    NotCompatible,
    SizeLimit,
)
from ordsgp.report import ConditionResult, make_bundle
from ordsgp.sweep import CHECK_IDS, sweep, sweep_order, table_ranges

from conftest import make_lz2_sg, make_t1
from order4_oracles import canonical_form, poset_scan, tables_dfs


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


def _rows(n, flat):
    return [flat[i * n : (i + 1) * n] for i in range(n)]


def test_table_list_equals_the_labeled_search():
    # the orbits of the lex leaders, sorted, are the labeled search's list,
    # element by element and in order; n = 1 has one relabeling, the identity
    for n in (1, 2, 3, 4):
        assert list(all_semigroup_tables(n)) == list(tables_dfs(n))


def test_each_lex_leader_is_least_in_its_orbit():
    # canonical_form takes the least of all n! relabelings by brute force
    for n in (1, 2, 3, 4):
        for flat in _lex_leader_tables(n):
            least = canonical_form(validate_semigroup(n, _rows(n, flat)))[0]
            assert tuple(v for row in least for v in row) == flat


def test_lex_leaders_are_the_canonical_forms():
    for n in (1, 2, 3):
        forms = {canonical_form(f)[0] for f in enumerate_semigroups(n)}
        leaders = [tuple(map(tuple, _rows(n, flat))) for flat in _lex_leader_tables(n)]
        assert len(leaders) == len(forms) and set(leaders) == forms


def test_class_counts_and_orbit_sizes():
    # A027851 classes and A023814 labeled tables; an orbit has n!/|Aut| tables
    for n, classes, labeled in [(1, 1, 1), (2, 5, 8), (3, 24, 113), (4, 188, 3492)]:
        leaders = list(_lex_leader_tables(n))
        assert leaders == sorted(leaders) and len(leaders) == classes
        sizes = [len(_labeled_tables(n, [flat])) for flat in leaders]
        assert all(math.factorial(n) % size == 0 for size in sizes)
        assert sum(sizes) == labeled


def test_the_tables_of_one_order_share_their_rows():
    semigroups = list(enumerate_semigroups(3))
    assert len({id(row) for f in semigroups for row in f.table}) <= 3**3


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
    # the search yields the scan's posets, element by element and in order
    for n in (1, 2, 3, 4):
        assert list(all_posets(n)) == poset_scan(n)


def test_poset_search_certifies_each_poset_once():
    # on a cold start the search asks core._partial_order once per poset
    # and never for a pair set that breaks an axiom
    all_posets.cache_clear()
    enumeration._certified_orders.cache_clear()
    core._partial_order.cache_clear()
    for n, count in [(1, 1), (2, 3), (3, 19), (4, 219)]:
        before = core._partial_order.cache_info()
        all_posets(n)
        after = core._partial_order.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (count, 0)


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


_ORDER_ARGUMENTS = {
    "all_semigroup_tables(2.0)": (lambda: all_semigroup_tables(2.0), "2.0"),
    "enumerate_semigroups(2.0)": (lambda: enumerate_semigroups(2.0), "2.0"),
    "sample_ordered_semigroups(2.0, 3, 1)": (
        lambda: list(sample_ordered_semigroups(2.0, 3, 1)),
        "2.0",
    ),
    "enumerate_ordered_semigroups('2')": (lambda: enumerate_ordered_semigroups("2"), "'2'"),
}


@pytest.mark.parametrize("call, value", _ORDER_ARGUMENTS.values(), ids=_ORDER_ARGUMENTS)
def test_orders_that_are_not_integers_are_refused(call, value):
    """An order that is not an integer is one ValueError naming it, never a
    bare TypeError; 2.0 does not reach the cached tables of order 2."""
    all_semigroup_tables(2)
    with pytest.raises(ValueError, match=f"^order entry 0 is not an integer: {re.escape(value)}$"):
        call()


@pytest.mark.parametrize(
    "count, message",
    [(2.0, "^count entry 0 is not an integer: 2.0$"), (-1, "^count must be at least 0, got -1$")],
)
def test_sample_counts_that_are_not_counts_are_refused(count, message):
    """A sample count that is not an integer, or is negative, is one
    ValueError naming it, never a bare TypeError or an empty sample."""
    with pytest.raises(ValueError, match=message):
        list(sample_ordered_semigroups(2, count, 1))
    assert list(sample_ordered_semigroups(2, 0, 1)) == []


def test_stream_determinism():
    docs1 = [serialize_document(s) for s in enumerate_ordered_semigroups(2)]
    docs2 = [serialize_document(s) for s in enumerate_ordered_semigroups(2)]
    assert docs1 == docs2
    assert transcript_hash(docs1) == transcript_hash(docs2)


# SHA-256 of the tokens of every 997th order-4 position, one per line
TOKENS_4_SHA = "5b71c2cf260134e3787e9f89c89ca65bc755821616f52542787e4f46cb00d587"


def test_resume_ordered():
    # every position at order <= 3: the token resumes at the next position
    for n in (1, 2, 3):
        total = ordered_offsets(n)[-1]
        for p in range(total):
            assert resume_position(n, resume_token(n, p)) == p + 1
    # the tail after a resumed token is the tail of the full stream
    full = list(enumerate_ordered_semigroups(3))
    start = resume_position(3, resume_token(3, 136))
    assert list(enumerate_ordered_semigroups(3, positions=(start, 971))) == full[137:]
    assert resume_token(3, 970) == "o3:222222222:18"
    positions = range(0, ordered_offsets(4)[-1], 997)
    tokens = [resume_token(4, p) for p in positions]
    assert [resume_position(4, token) for token in tokens] == [p + 1 for p in positions]
    assert hashlib.sha256("\n".join(tokens).encode()).hexdigest() == TOKENS_4_SHA


def test_resume_token_rejects_garbage():
    for token in [
        "bogus",
        "o2:xx:0",
        # an order index past the table's compatible orders
        "o2:0000:99",
        # tables that are not associative
        "o2:1000:0",
        # semigroup streams take no token
        "s2:1000",
    ]:
        with pytest.raises(ValueError):
            resume_position(2, token)
    # a position outside the stream, or one that is not an integer
    for position in [-1, 20, 1.5]:
        with pytest.raises(ValueError, match=str(position)):
            resume_token(2, position)


def _streams(n):
    """The ordered-semigroup stream and a sample, both fully consumed, and
    the check-free sweep, serial and with two workers (under the
    ``serial_pool`` fixture)."""
    yield lambda: list(enumerate_ordered_semigroups(n))
    yield lambda: list(sample_ordered_semigroups(n, 5, seed=1))
    yield lambda: sweep_order(n, 1, ())
    yield lambda: sweep_order(n, 2, ())


def test_streams_validate_every_table(monkeypatch, serial_pool):
    # rows (1, 0), (0, 0): (00)1 = 1*1 = 0 but 0(01) = 0*0 = 1
    monkeypatch.setattr(enumeration, "_TABLE_LISTS", {2: ((1, 0, 0, 0),)})
    for consume in _streams(2):
        with pytest.raises(NotAssociative):
            consume()


def test_streams_validate_every_order(monkeypatch, serial_pool):
    # Z2 with the chain 0 <= 1 (position 1 in all_posets(2)) is incompatible
    monkeypatch.setattr(enumeration, "_TABLE_LISTS", {2: ((0, 1, 1, 0),)})
    monkeypatch.setattr(enumeration, "_compatible_orders_flat", lambda n, flat: (1,))
    assert all_posets(2)[1] == ((True, True), (False, True))
    with pytest.raises(NotCompatible) as generic:
        validate_structure(2, [[0, 1], [1, 0]], [(0, 1)])
    for consume in _streams(2):
        with pytest.raises(NotCompatible) as streamed:
            consume()
        assert streamed.value.witness == generic.value.witness


def test_streams_equal_the_generic_validator():
    # the streams build from certified orders; validate_structure
    # normalizes and certifies the poset's pairs itself
    def generic(n, flat, k):
        rows = enumeration._flat_to_rows(n, flat)
        return validate_structure(n, rows, core.leq_pairs(all_posets(n)[k]))

    def orders(n, flat):
        return enumeration._compatible_orders_flat(n, flat)

    for n in (1, 2, 3):
        tables = all_semigroup_tables(n)
        expected = [generic(n, flat, k) for flat in tables for k in orders(n, flat)]
        assert list(enumerate_ordered_semigroups(n)) == expected
    # the sample's draws, replayed: a uniform table, then a uniform order
    rng = random.Random(7)
    tables = all_semigroup_tables(4)
    expected = []
    for _ in range(200):
        flat = tables[rng.randrange(len(tables))]
        listed = orders(4, flat)
        expected.append(generic(4, flat, listed[rng.randrange(len(listed))]))
    assert list(sample_ordered_semigroups(4, 200, seed=7)) == expected


def test_stream_checks_each_table_once(monkeypatch):
    calls = []
    check = core._check_associative

    def counting_check(size, table):
        calls.append(table)
        check(size, table)

    monkeypatch.setattr(core, "_check_associative", counting_check)
    assert sum(1 for _ in enumerate_ordered_semigroups(3)) == 971
    assert len(calls) == len(set(calls)) == 113
    # a chunk checks only the tables that hold one of its positions
    offsets = ordered_offsets(3)
    bounds = [w * 971 // 4 for w in range(5)]
    for lo, hi in zip(bounds, bounds[1:]):
        calls.clear()
        list(enumerate_ordered_semigroups(3, positions=(lo, hi)))
        assert len(calls) == sum(offsets[t] < hi and lo < offsets[t + 1] for t in range(113))


def test_positions_slice_the_stream():
    full = list(enumerate_ordered_semigroups(2))
    # each table's first order (token suffix ":0") starts at its offset
    starts = [p for p in range(20) if resume_token(2, p).endswith(":0")]
    assert ordered_offsets(2) == starts + [20] == [0, 3, 6, 9, 12, 13, 16, 17, 20]
    for lo in range(21):
        for hi in range(lo, 21):
            assert list(enumerate_ordered_semigroups(2, positions=(lo, hi))) == full[lo:hi]
    for bad in [(-1, 3), (5, 4), (0, 21)]:
        with pytest.raises(BadEnumeration, match="outside 0..20"):
            list(enumerate_ordered_semigroups(2, positions=bad))
    # only None means the whole stream; anything but two integers is refused
    for bad in [5, (0, 3, 5), (1,), 0, (), (0.5, 3)]:
        message = f"positions {re.escape(repr(bad))} is not a pair of integers"
        with pytest.raises(BadEnumeration, match=message):
            list(enumerate_ordered_semigroups(2, positions=bad))


def test_table_ranges_cover_everything():
    offsets = ordered_offsets(3)
    full = list(enumerate_ordered_semigroups(3))
    for size in (1, 31, 500, 10_000):
        chunks = list(table_ranges(3, size))
        assert chunks[0][0] == 0 and chunks[-1][1] == 971
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
        assert all(hi in offsets for _, hi in chunks)
        merged = []
        for chunk in chunks:
            merged.extend(enumerate_ordered_semigroups(3, positions=chunk))
        assert merged == full  # contiguous ranges preserve the global order
    # size 1: one range per table
    assert list(table_ranges(3, 1)) == list(zip(offsets, offsets[1:]))


def test_table_ranges_end_at_the_first_boundary_past_size():
    offsets = ordered_offsets(4)
    for size in (1, 1000, 4096):
        # a resumed range starts at the position after the token, mid-table
        for start in (0, 50_001):
            chunks = list(table_ranges(4, size, start))
            assert chunks[0][0] == start and chunks[-1][1] == 107688
            assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
            for lo, hi in chunks[:-1]:
                assert hi == offsets[bisect.bisect_left(offsets, lo + size)]
    bounds = [4, 6, 9, 12, 13, 16, 17, 20]
    assert list(table_ranges(2, 1, start=4)) == list(zip(bounds, bounds[1:]))
    assert list(table_ranges(2, 1, start=20)) == []


def test_parallel_sweep_caps_processes_at_cpu_count(serial_pool):
    report = sweep_order(3, 1000, check_ids=())
    assert serial_pool["started"] == [2]
    serial = sweep(enumerate_ordered_semigroups(3), check_ids=())
    assert report.total == serial.total == 971
    assert report.sequence_hash == transcript_hash(serial.transcripts)
    assert report.sorted_hash == transcript_hash(serial.transcripts, sort=True)
    # two ranges per worker in flight, of about 31 positions each at order 3
    assert serial_pool["most_in_flight"] == 4


def _assert_streamed_digests(n, workers, check_ids, start):
    report = sweep_order(n, workers, check_ids, start)
    end = ordered_offsets(n)[-1]
    oracle = sweep(enumerate_ordered_semigroups(n, positions=(start, end)), check_ids)
    assert report.total == oracle.total
    assert report.disagreements == oracle.disagreements
    assert report.sequence_hash == transcript_hash(oracle.transcripts)
    assert report.sorted_hash == transcript_hash(oracle.transcripts, sort=True)
    return report


@pytest.mark.parametrize("workers", [1, 2])
def test_streamed_digests_match_transcript_hash(serial_pool, workers):
    for check_ids in ((), CHECK_IDS):
        for start in range(21):
            _assert_streamed_digests(2, workers, check_ids, start)
    # the stream's start, a mid-table resume position, its last position
    mid = resume_position(3, "o3:012111012:1")
    assert resume_token(3, mid).endswith(":2")
    for start in (0, mid, 970):
        _assert_streamed_digests(3, workers, (), start)
    assert serial_pool["started"] == ([2] * (2 * 21 + 3) if workers == 2 else [])


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_order_reports_disagreements_in_stream_order(monkeypatch, serial_pool, workers):
    # a mutant CR-EQ5 that disagrees on every structure with 0 * 0 != 0
    # (250 of the 971 of order 3) and runs the real check on the others
    real = sweep_module.CHECKS["CR-EQ5"]
    mutant = make_bundle(
        "CR-EQ5", (ConditionResult("first side", True), ConditionResult("second side", False))
    )
    monkeypatch.setitem(
        sweep_module.CHECKS, "CR-EQ5", lambda s: real(s) if s.table[0][0] == 0 else mutant
    )
    # the stream's start, and a resume in the middle of a disagreeing table
    mid = resume_position(3, "o3:110111012:2")
    for start, count in [(0, 250), (mid, 235)]:
        report = _assert_streamed_digests(3, workers, ("CR-EQ5",), start)
        assert len(report.disagreements) == count
        stream = enumerate_ordered_semigroups(3, positions=(start, 971))
        assert [d.document for d in report.disagreements] == [
            serialize_document(s) for s in stream if s.table[0][0] != 0
        ]
    assert serial_pool["started"] == ([2, 2] if workers == 2 else [])


@pytest.mark.parametrize("workers", [1, 2])
def test_a_check_free_sweep_builds_no_structure(monkeypatch, serial_pool, workers):
    def refuse(*args, **kwargs):
        raise AssertionError("a check-free sweep built an OrderedSemigroup")

    monkeypatch.setattr(core.OrderedSemigroup, "__init__", refuse)
    report = sweep_order(3, workers, ())
    assert report.total == 971
    with pytest.raises(AssertionError):
        sweep_order(3, workers, ("CR-EQ5",))


def test_a_pooled_sweep_takes_offsets_and_certificates_once(monkeypatch, serial_pool):
    calls = {"orders": 0, "certified": 0}
    orders_of, certify = enumeration._compatible_orders_flat, enumeration._partial_order

    def counting_orders(n, flat):
        calls["orders"] += 1
        return orders_of(n, flat)

    def counting_certify(*args):
        calls["certified"] += 1
        return certify(*args)

    all_posets(3)  # the poset search certifies on a cold start
    monkeypatch.setattr(enumeration, "_compatible_orders_flat", counting_orders)
    monkeypatch.setattr(enumeration, "_partial_order", counting_certify)
    enumeration._certified_orders.cache_clear()
    report = sweep_order(3, 2, ())
    assert report.total == 971 and serial_pool["started"] == [2]
    # the offsets ask once per table, and so does the walk over all ranges;
    # each of the 19 posets is certified once
    assert calls == {"orders": 2 * 113, "certified": 19}
    # a second sweep in the same process takes both from the caches
    sweep_order(3, 2, ())
    assert calls == {"orders": 3 * 113, "certified": 19}


def test_offsets_follow_a_replaced_table_list(monkeypatch):
    full = ordered_offsets(2)
    monkeypatch.setattr(enumeration, "_TABLE_LISTS", {2: all_semigroup_tables(2)[:2]})
    assert ordered_offsets(2) == full[:3]
    monkeypatch.setattr(enumeration, "_compatible_orders_flat", lambda n, flat: (0,))
    assert ordered_offsets(2) == [0, 1, 2]
    monkeypatch.undo()
    assert ordered_offsets(2) == full


def test_fold_refuses_blocks_out_of_sort_order(monkeypatch, serial_pool, capsys):
    tables = all_semigroup_tables(2)
    larger, smaller = tables[-1], tables[0]
    monkeypatch.setattr(enumeration, "_TABLE_LISTS", {2: (larger, smaller)})
    for workers in (1, 2):
        with pytest.raises(InvariantViolation):
            sweep_order(2, workers)
    # the command exits with an error line and prints no hash
    assert cli.main(["enumerate", "--order", "2"]) == 2
    captured = capsys.readouterr()
    assert "hash" not in captured.out
    assert captured.err.startswith("error: the block after 3 structures sorts below")


def test_sweep_order_memory_does_not_grow_with_the_stream():
    docs = sweep(enumerate_ordered_semigroups(3), check_ids=()).transcripts
    stream_bytes = sum(sys.getsizeof(doc) for doc in docs)
    assert len(docs) == 971
    del docs
    sweep_order(3, 1, ())  # fills the enumeration caches and loads hashlib
    tracemalloc.start()
    try:
        sweep_order(3, 1, ())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stream_bytes / 4, (peak, stream_bytes)


def test_a_swept_structure_leaves_no_cyclic_garbage():
    """Nothing cached on a swept structure refers back to it, so once its
    checks have run and it is dropped, nothing is left for the cyclic
    collector."""
    runs = (
        lambda: sweep(sample_ordered_semigroups(4, 200, 20260810)),
        lambda: sweep_order(2, 1, CHECK_IDS),
    )
    for run in runs:
        run()  # fills the enumeration caches and loads hashlib
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for run in runs:
            gc.collect()
            run()
            assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


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
