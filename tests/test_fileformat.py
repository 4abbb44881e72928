"""Document parsing and canonical serialization."""

import pytest

from ordsgp import (
    FiniteSemigroup,
    OrderedSemigroup,
    parse_document,
    serialize_document,
)
from ordsgp.errors import NotAntisymmetric, NotTransitive, ParseError

from conftest import all_ordered_fixtures, make_sl2, make_z2

SL2_DOC = """kind: osg
elements: 2
table:
0 0
0 1
order:
0 1
"""


def test_parse_sl2():
    s = parse_document(SL2_DOC)
    assert isinstance(s, OrderedSemigroup)
    assert s == make_sl2()


def test_serialize_sl2_is_canonical():
    assert serialize_document(make_sl2()) == SL2_DOC


def test_antisymmetry_violation_detected():
    with pytest.raises(NotAntisymmetric):
        parse_document(SL2_DOC + "1 0\n")


def test_single_element_document():
    doc = "kind: osg\nelements: 1\ntable:\n0\norder:\n"
    s = parse_document(doc)
    assert s.size == 1
    assert serialize_document(s) == doc


def test_sgp_round_trip():
    z2 = make_z2()
    doc = serialize_document(z2)
    assert "order:" not in doc
    parsed = parse_document(doc)
    assert isinstance(parsed, FiniteSemigroup)
    assert parsed == z2


def test_names_round_trip():
    doc = "kind: osg\nelements: 2\nnames: zero one\ntable:\n0 0\n0 1\norder:\n0 1\n"
    s = parse_document(doc)
    assert s.names == ("zero", "one")
    assert serialize_document(s) == doc


def test_comments_and_blank_lines_ignored():
    doc = (
        "# a structure\nkind: osg\n\nelements: 2  # two elements\n"
        "table:\n0 0\n0 1\norder:\n0 1\n"
    )
    assert parse_document(doc) == make_sl2()


def test_parse_errors_carry_line_numbers():
    cases = [
        ("kind: wat\n", 1),
        ("kind: osg\nelements: x\n", 2),
        ("kind: osg\nelements: 0\n", 2),
        ("kind: osg\nelements: 2\ntable:\n0 0 0\n0 1\norder:\n", 4),
        ("kind: osg\nelements: 2\ntable:\n0 0\n0 2\norder:\n", 5),
        ("kind: osg\nelements: 2\nnames: a\ntable:\n0 0\n0 1\norder:\n", 3),
        ("kind: osg\nelements: 2\ntable:\n0 0\n0 1\norder:\n0\n", 7),
        ("kind: sgp\nelements: 2\ntable:\n0 0\n0 1\norder:\n", 6),
        ("elements: 2\n", 1),
        ("kind: osg\nelements: 2\ntable:\n0 0\n", 5),
        ("", 1),
    ]
    for text, line in cases:
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert err.value.line == line, text


def test_truncated_document():
    with pytest.raises(ParseError):
        parse_document("kind: osg\nelements: 2\ntable:\n0 0\n")


def test_missing_transitivity_is_an_input_error():
    doc = (
        "kind: osg\nelements: 3\ntable:\n0 0 0\n0 1 1\n0 1 2\n"
        "order:\n0 1\n1 2\n"
    )
    with pytest.raises(NotTransitive):
        parse_document(doc)
    s = parse_document(doc, close_order=True)
    assert s.le(0, 2)


def test_round_trip_every_fixture():
    for name, s in all_ordered_fixtures():
        doc = serialize_document(s)
        assert parse_document(doc) == s, name
        assert serialize_document(parse_document(doc)) == doc, name


def _canonical_text(s):
    """Canonical document text, written from the structure's fields."""
    ordered = isinstance(s, OrderedSemigroup)
    lines = [f"kind: {'osg' if ordered else 'sgp'}", f"elements: {s.size}"]
    if s.names is not None:
        lines.append("names: " + " ".join(s.names))
    lines.append("table:")
    lines += [" ".join(str(v) for v in row) for row in s.table]
    if ordered:
        lines.append("order:")
        lines += [
            f"{a} {b}" for a in range(s.size) for b in range(s.size) if a != b and s.leq[a][b]
        ]
    return "\n".join(lines) + "\n"


def test_round_trip_every_structure_up_to_order_3():
    from ordsgp import (
        enumerate_ordered_semigroups,
        enumerate_semigroups,
        validate_semigroup,
        validate_structure,
    )

    structures = [
        s for n in (1, 2, 3) for s in (*enumerate_semigroups(n), *enumerate_ordered_semigroups(n))
    ]
    # alternately from both ends, so that no two neighbours share a table
    # and every first serialization misses the one-entry head memo
    half = (len(structures) + 1) // 2
    front, back = structures[:half], structures[half:][::-1]
    interleaved = [s for pair in zip(front, back) for s in pair] + front[len(back) :]
    # one table as sgp and as osg, with and without names
    table = ((0, 0, 0), (0, 1, 1), (0, 1, 2))
    names = ("z", "e", "one")
    variants = [
        validate_semigroup(3, table),
        validate_structure(3, table, [(0, 1)]),
        validate_semigroup(3, table, names),
        validate_structure(3, table, [(0, 1)], names),
        validate_structure(3, table),
    ]
    count = 0
    for s in interleaved + variants + variants[::-1]:
        text = _canonical_text(s)
        assert serialize_document(s) == text
        assert parse_document(text) == s
        assert serialize_document(parse_document(text)) == text
        count += 1
    assert len({serialize_document(s) for s in variants}) == len(variants)
    assert count == (1 + 8 + 113) + (1 + 20 + 971) + 2 * len(variants)
