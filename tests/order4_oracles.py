"""Brute-force oracles for tables, posets, complete semilattice congruences,
ideals, associativity, the power structure, the order validator and the
cover by group-like subsemigroups.

``tables_dfs`` is the labeled table search, which finds every associative
table on n labeled elements, and ``canonical_form`` the least relabeling of
a structure under all n! carrier permutations; the lex-leader search is
held to both.  ``dual_structure`` reverses a structure's multiplication
for the duality contract.  ``poset_scan`` tries all 2^(n*n - n) sets of
non-reflexive pairs against the definition of a partial order,
``csc_oracle`` scans all Bell(n) partitions of the carrier through
``relation_properties_oracle``, the flag-and-break loops over the
congruence definitions, and ``ideal_oracle`` all 2^n subsets through
``is_ideal``, the ideal check by absorption and down-closure.
``associativity_oracle`` scans every triple of a table in lexicographic
order.  The tier-1 tests compare the package with them on small orders.
Run as a script, this file first compares ``all_posets(5)`` with
``poset_scan(5)``, element by element and in order, and checks that
the lex-leader search finds the 1,915 table classes of order 5 and that
their orbits are the 183,732 tables of ``tables_dfs(5)`` (pinned as
``TABLES_5_SHA``; the labeled search takes minutes at order 5), and
compares P(F) with ``power_oracle`` for each of the 1,915 leaders.  It then
compares the other oracles on every ordered semigroup of order 4, and
checks there that the congruence generated by the complete semilattice
axioms equals N, the filter-equality relation, and that the principal
left, right and two-sided ideals, which the package builds from the
cached one-sided multiples, equal ``principal_oracle``, sets of products
taken from the table and down-closed through the order, and that
``_simple``, which builds them one element at a time, gives
``simple_oracle``'s verdict and counterexample on each side, and that
``relation_properties`` equals its oracle, flags and counterexamples, on
Green's L, R, J and H and on N, and that CR-HCLASS's
cover search, ``_union_of_group_like``, equals
``union_of_group_like_oracle``, the 2^n scan over every subset through
the definition of a group-like subsemigroup, and that the masks of
``down_closure`` of every singleton and of ``group_component`` of every
ordered idempotent hold the sets that the definitions give
(``subset_mismatches``).  It also runs
every (table, poset) pair of order 4 through ``validate_structure`` and
compares the verdict and the ``NotCompatible`` witness with
``compatibility_oracle``, a scan of the definition, and the accepted pairs
with the orders ``_compatible_orders_flat`` lists for each table.  It
builds P(F) for all 3,492 semigroups F of order 4 and compares its table,
order pairs and names with ``power_oracle``, which computes each product
of two subsets on its own through ``product_mask`` (the package builds
every entry as the union of two earlier ones).  Last, it relabels every
structure by one seeded permutation and asks every check for the same
verdicts (``relabel_mismatches``), and meets every structure with its
dual, which the stream also holds, to ask for the mirrored verdicts
(``DualPairs``):

    PYTHONPATH=src python -X dev -W error tests/order4_oracles.py

It exits 1 at the first mismatch and prints the structure.  pytest does
not collect it: its name does not match ``test_*.py``.
"""

from __future__ import annotations

import hashlib
import random
import sys
from dataclasses import dataclass
from itertools import combinations, permutations

from ordsgp import (
    OrderedSemigroup,
    RelationProperties,
    Side,
    complete_semilattice_congruences,
    down_closure,
    enumerate_ideals,
    enumerate_ordered_semigroups,
    enumerate_partitions,
    enumerate_semigroups,
    green_relation,
    group_component,
    n_relation,
    power_ordered_semigroup,
    predicate,
    relation_properties,
    serialize_document,
    validate_semigroup,
    validate_structure,
)
from ordsgp.classification import CHECKS, PREDICATE_ORDER, _simple, _union_of_group_like
from ordsgp.congruence import _generated_congruence_ids
from ordsgp.core import _relabel, bits, down_mask, full_mask, leq_pairs, mask_of, product_mask
from ordsgp.enumeration import (
    DEFAULT_SAMPLE_SEED,
    _compatible_orders_flat,
    _flat_to_rows,
    _labeled_tables,
    _lex_leader_tables,
    all_posets,
)
from ordsgp.errors import EmptySet, NotApplicable, NotCompatible
from ordsgp.ideals import _principal_masks


# SHA-256 (``table_list_sha``) of ``list(tables_dfs(5))``, 183,732 tables
TABLES_5_SHA = "7cee3bf04de1ad73bad2ab5d42f4e16883efb3ffbb7fbb46c11fe91739df10af"


def tables_dfs(n: int):
    """All associative tables on n labeled elements, flat, lexicographic:
    the labeled search that the lex-leader search and its orbit expansion
    replace.

    Cells fill row-major.  Setting a cell tests every triple (xy)z = x(yz)
    whose four products are then known, with the new cell in each position
    it can take: xy, yz, the outer (xy)z and the outer x(yz).  A triple is
    tested when the last of its products is set, so every partial table is
    consistent and every leaf is associative.
    """
    cells = [(i, j) for i in range(n) for j in range(n)]
    total = n * n
    table = [[-1] * n for _ in range(n)]
    # the set cells (a, b) with table[a][b] == v, for each value v
    preimage = [[] for _ in range(n)]

    def partial_ok(i: int, j: int) -> bool:
        v = table[i][j]
        row_v = table[v]
        row_i = table[i]
        # the new cell as xy: (ij)c = i(jc)
        for c in range(n):
            q = table[j][c]
            if q >= 0:
                left = row_v[c]
                right = row_i[q]
                if left >= 0 and right >= 0 and left != right:
                    return False
        # as yz: (ai)j = a(ij)
        for a in range(n):
            p = table[a][i]
            if p >= 0:
                left = table[p][j]
                right = table[a][v]
                if left >= 0 and right >= 0 and left != right:
                    return False
        # as the outer (xy)z, xy = ab = i: (ab)j = a(bj)
        for a, b in preimage[i]:
            q = table[b][j]
            if q >= 0:
                right = table[a][q]
                if right >= 0 and right != v:
                    return False
        # as the outer x(yz), yz = bc = j: i(bc) = (ib)c
        for b, c in preimage[j]:
            p = row_i[b]
            if p >= 0:
                left = table[p][c]
                if left >= 0 and left != v:
                    return False
        return True

    def rec(d: int):
        if d == total:
            yield tuple(table[i][j] for i, j in cells)
            return
        i, j = cells[d]
        for v in range(n):
            table[i][j] = v
            preimage[v].append((i, j))
            if partial_ok(i, j):
                yield from rec(d + 1)
            preimage[v].pop()
            table[i][j] = -1

    yield from rec(0)


def canonical_form(structure) -> tuple:
    """Least relabeling of the structure under all carrier permutations.

    Structures with equal canonical forms are isomorphic.  It tries all n!
    relabelings: the brute-force oracle for the lex-leader search.
    """
    ordered = isinstance(structure, OrderedSemigroup)
    # every permutation is the inverse of one, so this is every relabeling
    relabelings = (_relabel(structure, m) for m in permutations(range(structure.size)))
    return min((r.table, r.leq) if ordered else (r.table,) for r in relabelings)


def dual_structure(s: OrderedSemigroup) -> OrderedSemigroup:
    """Order dual under multiplication reversal: a*b becomes b*a.

    Right-sided variants of every left-sided notion are the left-sided
    notion evaluated on the dual; the duality contract (``DualPairs``)
    reads it.
    """
    n = s.size
    table = tuple(tuple(s.table[b][a] for b in range(n)) for a in range(n))
    return OrderedSemigroup(n, table, s.names, leq=s.leq)


def table_list_sha(tables) -> str:
    """SHA-256 of a flat table list, one table per line, e.g. ``0123...``."""
    text = "\n".join("".join(map(str, flat)) for flat in tables)
    return hashlib.sha256(text.encode()).hexdigest()


def poset_scan(n: int) -> list:
    """Every partial order on n points as a leq matrix, in ascending order
    of the mask whose bit p is the p-th pair (a, b), a != b, row-major:
    the scan over all 2^(n*n - n) masks, kept when antisymmetric and
    transitive by definition."""
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    found = []
    for mask in range(1 << len(pairs)):
        leq = [[a == b for b in range(n)] for a in range(n)]
        for p, (a, b) in enumerate(pairs):
            if mask >> p & 1:
                leq[a][b] = True
        if not any(leq[a][b] and leq[b][a] for a, b in pairs) and all(
            leq[a][c] or not (leq[a][b] and leq[b][c])
            for a in range(n)
            for b in range(n)
            for c in range(n)
        ):
            found.append(tuple(map(tuple, leq)))
    return found


def relation_properties_oracle(s, ids) -> RelationProperties:
    """``relation_properties`` of the partition with one class id per
    element, from flag-and-break loops over the definitions: each flag's
    counterexample is its least failing tuple, left and right compatibility
    over (a, b, c) with a < b in one class, a ~ a*a and then a*b ~ b*a over
    all (a, b), and completeness over the pairs a <= b, a != b."""
    table = s.table
    n = s.size
    ces: dict = {}

    left = True
    right = True
    for a in range(n):
        for b in range(a + 1, n):
            if ids[a] != ids[b]:
                continue
            for c in range(n):
                if left and ids[table[c][a]] != ids[table[c][b]]:
                    left = False
                    ces["left_congruence"] = (a, b, c)
                if right and ids[table[a][c]] != ids[table[b][c]]:
                    right = False
                    ces["right_congruence"] = (a, b, c)
            if not (left or right):
                break
    congruence = left and right

    band = True
    for a in range(n):
        if ids[a] != ids[table[a][a]]:
            band = False
            ces["semilattice"] = (a, a)
            break
    if band:
        for a in range(n):
            for b in range(n):
                if ids[table[a][b]] != ids[table[b][a]]:
                    band = False
                    ces["semilattice"] = (a, b)
                    break
            if not band:
                break
    semilattice = congruence and band

    complete_part = True
    for a in range(n):
        for b in range(n):
            if a != b and s.leq[a][b] and ids[a] != ids[table[a][b]]:
                complete_part = False
                ces["complete_semilattice"] = (a, b)
                break
        if not complete_part:
            break
    complete = semilattice and complete_part

    return RelationProperties(left, right, congruence, semilattice, complete, ces)


def group_like_subset_oracle(s, mask: int) -> bool:
    """The definition: T is closed under the product and, for all a, b in
    T, a <= xb and a <= by for some x, y in T."""
    members = [i for i in range(s.size) if (mask >> i) & 1]
    table, leq = s.table, s.leq
    if any(not (mask >> table[a][b]) & 1 for a in members for b in members):
        return False
    return all(
        any(leq[a][table[x][b]] for x in members) and any(leq[a][table[b][y]] for y in members)
        for a in members
        for b in members
    )


def union_of_group_like_oracle(s):
    """The 2^n scan for CR-HCLASS's union condition: each subset, in
    ascending mask order, that is not inside the covered set joins it when
    it is a group-like subsemigroup; the least element left uncovered
    fails."""
    covered = 0
    full = full_mask(s)
    for mask in range(1, full + 1):
        if covered | mask == covered:
            continue
        if group_like_subset_oracle(s, mask):
            covered |= mask
            if covered == full:
                return True, None, {}
    return False, (next(bits(full & ~covered)),), {}


def csc_oracle(s) -> list[tuple[int, ...]]:
    """Class ids of every complete semilattice congruence, in the
    lexicographic restricted-growth order of a Bell(n) partition scan."""
    return [
        rgs
        for rgs in enumerate_partitions(s.size)
        if relation_properties_oracle(s, rgs).complete_semilattice
    ]


def named_relations(s):
    """Green's L, R, J and H and the filter-equality relation N of s, by name."""
    return [(kind, green_relation(s, kind)) for kind in "LRJH"] + [("N", n_relation(s))]


@dataclass(frozen=True)
class IdealCheck:
    holds: bool
    reason: str = ""
    violation: tuple | None = None

    def __bool__(self) -> bool:
        return self.holds


def is_ideal(s, imask: int, side: Side) -> IdealCheck:
    """Absorption on the given side plus downward closure of the nonempty
    subset with mask ``imask``, with a counterexample: left absorption's
    least (x, i), x-major; then right absorption's least (i, x), i-major;
    then the least t outside I below a member, with the least such
    member."""
    if not imask:
        raise EmptySet("ideal")
    table = s.table
    if side in (Side.LEFT, Side.TWO_SIDED):
        for x in range(s.size):
            row = table[x]
            for i in bits(imask):
                if not (imask >> row[i]) & 1:
                    return IdealCheck(False, "left absorption fails", (x, i))
    if side in (Side.RIGHT, Side.TWO_SIDED):
        for i in bits(imask):
            row = table[i]
            for x in range(s.size):
                if not (imask >> row[x]) & 1:
                    return IdealCheck(False, "right absorption fails", (i, x))
    closed = down_mask(s, imask)
    if closed != imask:
        t = next(bits(closed & ~imask))
        i = next(i for i in bits(imask) if s.leq[t][i])
        return IdealCheck(False, "not downward closed", (t, i))
    return IdealCheck(True)


def ideal_oracle(s, side: Side) -> list[int]:
    """Masks of every nonempty ideal of the side, ascending by size then
    members, from a scan of all subsets through ``is_ideal``."""
    subsets = (
        mask_of(combo) for k in range(1, s.size + 1) for combo in combinations(range(s.size), k)
    )
    return [mask for mask in subsets if is_ideal(s, mask, side)]


def compatibility_oracle(table, leq):
    """The least (a, b, c, side) with a <= b, a != b, and c*a <= c*b
    ("left") or a*c <= b*c ("right") failing, scanning a, b, c ascending
    and the left side first; None when the order is compatible."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            if a == b or not leq[a][b]:
                continue
            for c in range(n):
                if not leq[table[c][a]][table[c][b]]:
                    return (a, b, c, "left")
                if not leq[table[a][c]][table[b][c]]:
                    return (a, b, c, "right")
    return None


def associativity_oracle(table):
    """The least triple (i, j, k), scanning lexicographically, with
    (ij)k != i(jk); None when the table is associative."""
    n = len(table)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    return (i, j, k)
    return None


def power_oracle(f):
    """P(F) built one cell at a time: the nonempty subsets of F sorted by
    size, then lexicographically; the product of the i-th and j-th subsets
    is the position of ``product_mask(f, A, B)``.  Returns the table, the
    non-reflexive inclusion pairs (i, j) sorted and the names ``{x,y}``."""
    n = f.size
    subsets = [mask_of(c) for k in range(1, n + 1) for c in combinations(range(n), k)]
    index = {m: i for i, m in enumerate(subsets)}
    table = tuple(tuple(index[product_mask(f, a, b)] for b in subsets) for a in subsets)
    pairs = [
        (i, j)
        for i, a in enumerate(subsets)
        for j, b in enumerate(subsets)
        if i != j and a & b == a
    ]
    element_names = f.names or tuple(map(str, range(n)))
    names = tuple("{" + ",".join(element_names[x] for x in bits(a)) + "}" for a in subsets)
    return table, pairs, names


def power_mismatch(semigroups):
    """The first F whose ``power_ordered_semigroup`` differs from
    ``power_oracle`` in its table, order pairs or names, as a message; None,
    and the count of F, when all agree."""
    count = 0
    for f in semigroups:
        p = power_ordered_semigroup(f)
        if (p.table, p.order_pairs(), p.names) != power_oracle(f):
            return f"F with table {f.table}", count
        count += 1
    return None, count


def validator_mismatch(order: int):
    """The first (table, poset) pair of the order on which
    ``validate_structure`` disagrees with ``compatibility_oracle`` or with
    ``_compatible_orders_flat``, as a message; None, and the pair count,
    when all agree."""
    posets = all_posets(order)
    count = 0
    for f in enumerate_semigroups(order):
        listed = set(_compatible_orders_flat(order, tuple(v for row in f.table for v in row)))
        for k, leq in enumerate(posets):
            expected = compatibility_oracle(f.table, leq)
            try:
                validate_structure(order, f.table, leq_pairs(leq))
                got = None
            except NotCompatible as exc:
                got = exc.witness
            if got != expected or (got is None) != (k in listed):
                return f"table {f.table}, poset {k}: {got} against {expected}", count
            count += 1
    return None, count


def check_verdicts(s) -> dict:
    """Each check's (agree, condition truths), or its NotApplicable reason:
    the part of a result that names no element, so an isomorphic copy of s
    must give the same."""
    verdicts = {}
    for check_id, check in CHECKS.items():
        try:
            result = check(s)
        except NotApplicable as exc:
            verdicts[check_id] = exc.reason
        else:
            verdicts[check_id] = (result.agree, tuple(c.holds for c in result.conditions))
    return verdicts


def relabel_mismatches(s, p, verdicts) -> list[str]:
    """What goes wrong when element a of s is renamed p[a] by
    ``core._relabel``: an isomorphism identity p(a*b) = p(a)p(b) or
    a <= b iff p(a) <= p(b) that the result breaks, else the checks whose
    verdicts differ from ``verdicts``, which are ``check_verdicts(s)``."""
    inverse = [0] * s.size
    for a, pa in enumerate(p):
        inverse[pa] = a
    r = _relabel(s, inverse)
    pairs = [(a, b) for a in range(s.size) for b in range(s.size)]
    if any(r.table[p[a]][p[b]] != p[s.table[a][b]] for a, b in pairs):
        return [f"relabeled table under {p}"]
    if any(r.leq[p[a]][p[b]] != s.leq[a][b] for a, b in pairs):
        return [f"relabeled order under {p}"]
    moved = check_verdicts(r)
    return [f"{check_id} under {p}" for check_id in verdicts if moved[check_id] != verdicts[check_id]]


# the one-sided predicates and their mirrors; every other predicate but
# left_clifford, whose mirror is not in the registry, is its own mirror
MIRROR = {
    "left_group_like": "right_group_like",
    "right_group_like": "left_group_like",
    "left_simple": "right_simple",
    "right_simple": "left_simple",
}
# checks of a one-sided class, whose mirror is no check
ONE_SIDED = {"GL-CHAR", "LCL-EQ5", "LCL-EQ2", "LCL-LEASTCSC", "LCL-DECOMP"}
DUAL_PREDICATES = tuple(name for name in PREDICATE_ORDER if name != "left_clifford")
DUAL_CHECKS = tuple(check_id for check_id in CHECKS if check_id not in ONE_SIDED)


def _holds(s, name):
    """A predicate's verdict; not applicable counts as a value."""
    try:
        return predicate(s, name).holds
    except NotApplicable as exc:
        return exc.reason


class DualPairs:
    """Meets each structure of a stream closed under duality with its dual,
    the structure with the reversed multiplication and the same order
    (``dual_structure``), and compares their verdicts.  Every predicate but
    left_clifford must hold of the dual exactly when its mirror holds of
    the structure, and every check but the one-sided ones must give the
    dual the structure's verdict, with conditions 2 and 3 of CR-EQ5, each
    other's duals, swapped.  A structure whose dual has not come yet waits
    in ``pending``, keyed by its dual, with the verdicts its dual must
    show; so each structure's checks run once, and a stream that holds
    every dual leaves ``pending`` empty."""

    def __init__(self):
        self.pending = {}
        # one copy of each table and verdict vector, which many structures share
        self._copies = {}

    def _shared(self, value):
        return self._copies.setdefault(value, value)

    def add(self, s, verdicts) -> list[str]:
        """What goes wrong between s and its dual, once both have come:
        each predicate or check whose verdict on the dual is not the
        mirrored verdict on s.  ``verdicts`` are ``check_verdicts(s)``."""
        holds = {name: _holds(s, name) for name in DUAL_PREDICATES}
        own = tuple(holds[name] for name in DUAL_PREDICATES)
        own += tuple(verdicts[check_id] for check_id in DUAL_CHECKS)
        expected = self.pending.pop((s.table, s.leq), None)
        if expected is None:
            expected = tuple(holds[MIRROR.get(name, name)] for name in DUAL_PREDICATES)
            agree, conditions = verdicts["CR-EQ5"]
            swapped = (agree, conditions[:2] + (conditions[3], conditions[2]) + conditions[4:])
            expected += tuple(
                swapped if check_id == "CR-EQ5" else verdicts[check_id] for check_id in DUAL_CHECKS
            )
            d = dual_structure(s)
            if d.table != s.table:
                self.pending[self._shared(d.table), d.leq] = self._shared(expected)
                return []
        names = DUAL_PREDICATES + DUAL_CHECKS
        return [f"{name} on the dual" for name, a, b in zip(names, own, expected) if a != b]


def principal_oracle(s, side: Side) -> list[int]:
    """The mask of the principal ideal of the side of every a, from sets
    built on the table and the order: ({a} u Sa], ({a} u aS] or
    ({a} u Sa u aS u SaS]."""
    n, tb, leq = s.size, s.table, s.leq
    carrier = range(n)
    masks = []
    for a in carrier:
        seed = {a}
        if side is not Side.RIGHT:
            seed |= {tb[x][a] for x in carrier}
        if side is not Side.LEFT:
            seed |= {tb[a][x] for x in carrier}
        if side is Side.TWO_SIDED:
            seed |= {tb[tb[x][a]][y] for x in carrier for y in carrier}
        masks.append(mask_of({t for t in carrier for h in seed if leq[t][h]}))
    return masks


def simple_oracle(s, side: Side):
    """``_simple``'s answer from ``principal_oracle``: false at the least a
    whose principal ideal of the side misses an element, with the least
    element it misses."""
    for a, ideal in enumerate(principal_oracle(s, side)):
        missing = [x for x in range(s.size) if not (ideal >> x) & 1]
        if missing:
            return False, (a, missing[0]), {}
    return True, None, {}


def principal_mismatches(s) -> list[str]:
    """The sides whose principal ideals, built from the cached multiples,
    differ from ``principal_oracle``, or on which ``_simple`` differs from
    ``simple_oracle``."""
    found = []
    for side in Side:
        if list(_principal_masks(s, side)) != principal_oracle(s, side):
            found.append(f"{side.value} principal ideals")
        if _simple(s, side) != simple_oracle(s, side):
            found.append(f"{side.value} simple")
    return found


def subset_mismatches(s) -> list[str]:
    """The singletons {a} whose ``down_closure`` is not the set {t : t <= a},
    and the ordered idempotents e whose ``group_component`` is not the set
    {a : a <= ea, a <= ae, and e <= za, e <= az for one z}, both read off
    the table and the order."""
    carrier, tb, leq = range(s.size), s.table, s.leq
    found = [
        f"down-closure of {{{a}}}"
        for a in carrier
        if set(bits(down_closure(s, 1 << a))) != {t for t in carrier if leq[t][a]}
    ]
    for e in carrier:
        if not leq[e][tb[e][e]]:
            continue
        component = {
            a
            for a in carrier
            if leq[a][tb[e][a]]
            and leq[a][tb[a][e]]
            and any(leq[e][tb[z][a]] and leq[e][tb[a][z]] for z in carrier)
        }
        if set(bits(group_component(s, e))) != component:
            found.append(f"group component of {e}")
    return found


def mismatches(s):
    """The names of the oracles the package disagrees with on s."""
    found = principal_mismatches(s)
    if _union_of_group_like(s) != union_of_group_like_oracle(s):
        found.append("union of group like subsemigroups")
    if [rel.class_ids for rel in complete_semilattice_congruences(s)] != csc_oracle(s):
        found.append("complete semilattice congruences")
    if _generated_congruence_ids(s) != n_relation(s).class_ids:
        found.append("generated congruence against N")
    for name, rel in named_relations(s):
        if relation_properties(s, rel) != relation_properties_oracle(s, rel.class_ids):
            found.append(f"relation_properties of {name}")
    for side in Side:
        if enumerate_ideals(s, side) != ideal_oracle(s, side):
            found.append(f"{side.value} ideals")
    return found + subset_mismatches(s)


def main(order: int = 4) -> int:
    if list(all_posets(5)) != poset_scan(5):
        print("all_posets(5) differs from the scan")
        return 1
    print(f"order 5: {len(all_posets(5))} posets, equal to the scan in order")
    # the search is called directly: the semigroups guard stops at order 4
    leaders = list(_lex_leader_tables(5))
    tables = _labeled_tables(5, leaders)
    if (len(leaders), len(tables), table_list_sha(tables)) != (1915, 183732, TABLES_5_SHA):
        print(f"order 5: {len(leaders)} classes, {len(tables)} tables, not the labeled search's")
        return 1
    print(f"order 5: {len(leaders)} table classes, whose orbits are the labeled search's tables")
    mismatch, count = power_mismatch(validate_semigroup(5, _flat_to_rows(5, t)) for t in leaders)
    if mismatch:
        print(f"power structure mismatch on {mismatch}")
        return 1
    print(f"order 5: {count} power structures P(F) of the lex leaders, equal to the per-cell one")
    mismatch, pairs = validator_mismatch(order)
    if mismatch:
        print(f"validator mismatch on {mismatch}")
        return 1
    print(f"order {order}: {pairs} (table, poset) pairs, the validator agrees")
    mismatch, count = power_mismatch(enumerate_semigroups(order))
    if mismatch:
        print(f"power structure mismatch on {mismatch}")
        return 1
    print(f"order {order}: {count} power structures P(F), equal to the per-cell construction")
    count = 0
    rng = random.Random(DEFAULT_SAMPLE_SEED)
    duals = DualPairs()
    for s in enumerate_ordered_semigroups(order):
        verdicts = check_verdicts(s)
        found = mismatches(s)
        found += relabel_mismatches(s, rng.sample(range(order), order), verdicts)
        found += duals.add(s, verdicts)
        if found:
            print(f"mismatch ({', '.join(found)}) on:")
            print(serialize_document(s), end="")
            return 1
        count += 1
    if duals.pending:
        print(f"order {order}: {len(duals.pending)} structures whose dual is not in the stream")
        return 1
    print(
        f"order {order}: {count} ordered semigroups, every oracle agrees, "
        "relabeling and duality included"
    )
    print(
        f"order {order}: {count} ordered semigroups, principal L, R and J ideals "
        "from the multiples and _simple on each side equal to the set oracles"
    )
    print(
        f"order {order}: {count} ordered semigroups, the cover search for group like "
        "subsemigroups equal to the 2^n scan"
    )
    print(
        f"order {order}: {5 * count} relations L, R, J, H and N, relation_properties "
        "equal to the oracle in every flag and counterexample"
    )
    print(
        f"order {order}: {count} ordered semigroups, the down-closure of every singleton "
        "and the group component of every ordered idempotent equal to the set oracles"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
