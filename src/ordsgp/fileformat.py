"""Line-based document format for structures.

Ordered semigroup (.osg):

    kind: osg
    elements: 2
    names: zero one        # optional
    table:
    0 0
    0 1
    order:
    0 1

The order block lists the non-reflexive pairs a b meaning a <= b;
reflexive pairs are implied.  An unordered semigroup (.sgp) is the same
document with ``kind: sgp`` and no order block.  '#' starts a comment,
blank lines are ignored.

Parsing reads the lines straight into the validators of ``core``, so a
document either becomes a validated structure or raises; serialization
writes straight from the structure.  Canonical text uses single spaces,
the order pairs in ascending order and a trailing newline, and has no
comments, so parse(serialize(S)) = S and serialize(parse(text))
reproduces canonical text byte for byte.

A document is written as a head (kind, elements, names, table) and, for an
ordered structure, an order tail.  These two writers are the only ones:
``serialize_document`` joins them for a structure, and a sweep joins them
straight from a table and a poset, writing each table's head once, so both
write the same bytes.  The tail is written afresh for a structure; a
stream takes it from ``sweep._order_texts``, one per poset of its order.
"""

from __future__ import annotations

from .core import OrderedSemigroup, leq_pairs, validate_semigroup, validate_structure
from .errors import ParseError


def _logical_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _take(lines, what: str, end: int):
    """The next logical line; past the last one, a ParseError at ``end``,
    the line after the document's last line."""
    try:
        return next(lines)
    except StopIteration:
        raise ParseError(end, f"unexpected end of document, expected {what}") from None


def _expect_key(lineno: int, line: str, key: str) -> str:
    prefix = key + ":"
    if not line.startswith(prefix):
        raise ParseError(lineno, f"expected '{key}:', got {line!r}")
    return line[len(prefix):].strip()


def _int_in_range(lineno: int, token: str, bound: int, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(lineno, f"{what} must be an integer, got {token!r}") from None
    if not 0 <= value < bound:
        raise ParseError(lineno, f"{what} {value} out of range 0..{bound - 1}")
    return value


def parse_document(text: str, close_order: bool = False):
    """Parse a .osg or .sgp document into a validated structure; syntax
    errors carry the offending line number."""
    lines = _logical_lines(text)
    end = len(text.splitlines()) + 1

    lineno, line = _take(lines, "'kind:'", end)
    kind = _expect_key(lineno, line, "kind")
    if kind not in ("osg", "sgp"):
        raise ParseError(lineno, f"kind must be 'osg' or 'sgp', got {kind!r}")

    lineno, line = _take(lines, "'elements:'", end)
    raw = _expect_key(lineno, line, "elements")
    try:
        size = int(raw)
    except ValueError:
        raise ParseError(lineno, f"elements must be an integer, got {raw!r}") from None
    if size < 1:
        raise ParseError(lineno, "elements must be positive")

    lineno, line = _take(lines, "'names:' or 'table:'", end)
    names = None
    if line.startswith("names:"):
        tokens = _expect_key(lineno, line, "names").split()
        if len(tokens) != size:
            raise ParseError(lineno, f"expected {size} names, got {len(tokens)}")
        names = tuple(tokens)
        lineno, line = _take(lines, "'table:'", end)

    if line != "table:":
        raise ParseError(lineno, f"expected 'table:', got {line!r}")
    table = []
    for _ in range(size):
        lineno, line = _take(lines, "a table row", end)
        tokens = line.split()
        if len(tokens) != size:
            raise ParseError(lineno, f"table row needs {size} entries, got {len(tokens)}")
        table.append(tuple(_int_in_range(lineno, t, size, "table entry") for t in tokens))

    if kind == "sgp":
        leftover = next(lines, None)
        if leftover is not None:
            raise ParseError(leftover[0], f"unexpected content: {leftover[1]!r}")
        return validate_semigroup(size, table, names)

    lineno, line = _take(lines, "'order:'", end)
    if line != "order:":
        raise ParseError(lineno, f"expected 'order:', got {line!r}")
    pairs = []
    for lineno, line in lines:
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(lineno, f"order pair needs 2 entries, got {len(tokens)}")
        pairs.append(
            (
                _int_in_range(lineno, tokens[0], size, "order element"),
                _int_in_range(lineno, tokens[1], size, "order element"),
            )
        )
    return validate_structure(size, table, pairs, names, close_order=close_order)


def serialize_document(structure) -> str:
    """Canonical text for a structure; parse(serialize(S)) = S."""
    ordered = isinstance(structure, OrderedSemigroup)
    head = _head_text(ordered, structure.size, structure.names, structure.table)
    return head + _order_text(structure.leq) if ordered else head


def _head_text(ordered: bool, size: int, names, table) -> str:
    """The lines up to and including the table, each ending in a newline."""
    out = [f"kind: {'osg' if ordered else 'sgp'}", f"elements: {size}"]
    if names is not None:
        out.append("names: " + " ".join(names))
    out.append("table:")
    out.extend(" ".join(map(str, row)) for row in table)
    return "\n".join(out) + "\n"


def _order_text(leq) -> str:
    """The order block: ``order:`` and the strict pairs, each line ending in
    a newline."""
    return "order:\n" + "".join(f"{a} {b}\n" for a, b in leq_pairs(leq))
