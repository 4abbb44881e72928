"""Structure-level predicates, and the 19 executable checks.

A predicate is a named property of a whole structure (regular, completely
regular, group like, Clifford, ...).  A check groups the conditions of one
theorem: 13 equivalence bundles for the characterizations, 6 structure
theorems for the decompositions.  It computes every condition on its own
and reports whether they agree as the theorem says; a disagreement on any
finite structure falsifies the theorem, so the enumeration sweeps treat a
failed ``agree`` flag as a build-stopping finding.

Each check is stated once, at its builder: ``@_check(id, premise, groups)``
registers the builder, which returns the tuple of conditions, in
``CHECKS`` (id -> check) in definition order, bundles first.  The
registered check raises NotApplicable, with the premise's note, on a
structure outside the named one of the ``PREMISES``, and otherwise bundles
the conditions under the groups (default: all equivalent).

Nearly every definition reads "for all args there is x with
lhs <= left*x*right", and each such condition is a terms function for the
one witness search of ``elements`` (``witness_scan``): witnesses are
tried in ascending order, so they are least, and argument tuples run in
ascending lexicographic order, so a counterexample is the least failing
tuple.  Membership t in (XSY] is the same search, for x with t <= X*x*Y.
The remaining conditions are first-failure scans in the same ascending
order: ``elements.first_failure`` for Green's relations and inverses, and
short loops for the principal-ideal and class comparisons.  The
one-sided products all come from ``core._products``, which yields (b, Tb,
bT) for each member b of a subset T.  Over S it gives Sa and aS, from
which ``_simple`` builds each principal ideal and stops at the first
proper one.  Over a class it drives a class test (group like, left group
like, completely simple): Tb and bT give closedness, the "for all, there
is" conditions inside T and the principal ideals of T; its answer is a
boolean.  A relation's classes are read as the masks of its class ids.

What the checks of one structure share is exactly this:
- the same condition, evaluated once and read by every check that states
  it: the carrier-wide scans of the named specs without witnesses
  (``elements.carrier_scan``: regular, completely regular, group like,
  left group like, h-commutative), the Clifford condition, the left
  Clifford condition and the H-class condition, "every H-class is a group
  like ordered subsemigroup", which CR-HCLASS and CR-HCLASS-GL both
  state, each under its own key in the structure's cache;
- the kernels: the order masks, the one-sided multiples and their
  down-closures, the idempotents, Green's relations, the filters and the
  complete semilattice congruences.
Different conditions never share a verdict, not even two conditions of
one bundle: a scan that returns witnesses and the tests of a single class
are never kept, so CR-HCLASS's H-class and union conditions, or
CL-DECOMP's least-CSC and some-CSC conditions, each run their own tests.
Two conditions read one entry only where they state the same conjunct,
as both sides of LCL-LEASTCSC conjoin regularity, and no condition is
computed from another one's result.

Predicates with a regularity premise (left/right group like, Clifford,
left Clifford, inverse) share the checks' regular premise: they raise
NotApplicable on non-regular structures, not a vacuous boolean.  Checks on
structures outside such premises use the total forms (regular AND the
condition) so that equivalences remain meaningful on every input.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Callable

from . import limits
from .congruence import complete_semilattice_congruences, relation_properties
from .core import (
    OrderedSemigroup,
    _cached,
    _products,
    _union,
    below_masks,
    bits,
    columns,
    down_mask,
    down_multiples,
    full_mask,
    product_mask,
    sandwich_mask,
)
from .elements import (
    COMPLETELY_REGULAR,
    H_COMMUTATIVE,
    REGULAR,
    _then,
    carrier_scan,
    first_failure,
    forall_exists,
    idempotent_mask,
    inverse_mask,
    is_regular_structure,
    witness_scan,
)
from .errors import (
    InvariantViolation,
    NotApplicable,
    SizeLimit,
    UnknownBundle,
    UnknownPredicate,
    UnknownTheorem,
)
from .ideals import Side, green_relation, n_relation
from .report import (
    BundleResult,
    ClassificationReport,
    ConditionGroup,
    ConditionResult,
    PredicateResult,
    _cond,
    make_bundle,
)


# ---------------------------------------------------------------------------
# conditions
#
# A condition returns (holds, counterexample, witnesses).  Quantified
# conditions are (arity, terms) specs for ``forall_exists``, which ranges
# over S^arity.  The rest are first-failure scans over explicitly listed
# argument tuples.

LEFT_GROUP_LIKE = (2, lambda tb, a, b: ((a, None, b),))  # a <= x*b
RIGHT_GROUP_LIKE = (2, lambda tb, a, b: ((a, b, None),))  # a <= b*y
GROUP_LIKE = (2, lambda tb, a, b: ((a, None, b), (a, b, None)))


def _regular_then(s, scan, *args):
    """Total form of a regularity-gated condition: regular, and then the scan."""
    if not is_regular_structure(s):
        return False, ("not-regular",), {}
    return scan(s, *args)


def _simple(s, side):
    """No proper ideal of the given side: every principal ideal, ({a} u Sa],
    ({a} u aS] or ({a} u Sa u aS u SaS], is everything.  The ideals are
    built one element at a time, so the scan stops at the first proper one."""
    full = full_mask(s)
    for a, sa, as_ in _products(s, full):
        seed = as_ if side is Side.RIGHT else sa
        if side is Side.TWO_SIDED:
            seed |= as_ | product_mask(s, sa, full)
        m = down_mask(s, 1 << a | seed)
        if m != full:
            return False, (a, next(bits(full & ~m))), {}
    return True, None, {}


def _conjunction(*parts):
    """Every (label, thunk) part holds; a failure's counterexample starts with its label."""
    for label, part in parts:
        holds, ce, _ = part()
        if not holds:
            return False, (label,) + ce, {}
    return True, None, {}


def _closed(s, mask: int) -> bool:
    return not product_mask(s, mask, mask) & ~mask


# The class tests decide a subset T from the masks Tb and bT of each member
# b (``core._products``): T is product-closed when each lies inside T, and,
# for a in T, a <= xb for some x in T exactly when a is in (Tb], and
# a <= bx exactly when a is in (bT].


def _group_like_subsemigroup(s, t: int) -> bool:
    """T is product-closed and T lies inside (Tb] and (bT] for every b in T."""
    below = below_masks(s)
    for _, tb, bt in _products(s, t):
        if (tb | bt) & ~t or t & ~_union(below, tb) or t & ~_union(below, bt):
            return False
    return True


def _classes_all(s, rel, test):
    """Every class of rel passes test; the counterexample is the first failing class."""
    for mask in rel.masks:
        if not test(s, mask):
            return False, tuple(bits(mask)), {}
    return True, None, {}


def _clifford_scan(s, witnesses):
    """For every a and ordered idempotent e: ae <= e*u*a and ea <= a*v*e."""
    return witness_scan(
        s,
        product(range(s.size), bits(idempotent_mask(s))),
        lambda tb, a, e: ((tb[a][e], e, a), (tb[e][a], a, e)),
        witnesses,
    )


def _clifford(s):
    """``_clifford_scan`` without witnesses, once per structure."""
    return s._cache.get("clifford") or _cached(s, "clifford", lambda: _clifford_scan(s, False))


def _compare_aS_Sa(s, elems, equal: bool):
    """(aS] = (Sa] (equal) or (aS] inside (Sa] for each a; detail: a and the least outlier."""
    Sa, aS = down_multiples(s)
    for a in elems:
        outliers = aS[a] ^ Sa[a] if equal else aS[a] & ~Sa[a]
        if outliers:
            return False, (a, next(bits(outliers))), {}
    return True, None, {}


def _left_clifford(s):
    """(aS] is contained in (Sa] for every a, once per structure."""
    return s._cache.get("left_clifford") or _cached(
        s, "left_clifford", lambda: _compare_aS_Sa(s, range(s.size), False)
    )


def _inverse(s):
    """Any two ordered inverses of the same element are H-related."""
    ids = green_relation(s, "H").class_ids
    return first_failure(
        (
            (a, a1, a2)
            for a in range(s.size)
            for a1, a2 in combinations(bits(inverse_mask(s, a)), 2)
        ),
        lambda a, a1, a2: ids[a1] == ids[a2],
    )


def _relation_pairs(s, ok):
    """First pair (a, b) of carrier elements failing ok."""
    return first_failure(product(range(s.size), repeat=2), ok)


# ---------------------------------------------------------------------------
# premises


PREMISES: dict[str, tuple[Callable, str]] = {
    "regular": (is_regular_structure, "requires a regular structure"),
    "h_commutative": (
        lambda s: carrier_scan(s, H_COMMUTATIVE)[0],
        "requires an h-commutative structure",
    ),
}


def _require(premise: str, name: str, s) -> None:
    """Raise NotApplicable for name, with the premise's note, where the premise fails on s."""
    holds, note = PREMISES[premise]
    if not holds(s):
        raise NotApplicable(name, note)


# ---------------------------------------------------------------------------
# predicate registry


PREDICATES: dict[str, Callable] = {
    "regular": lambda s: forall_exists(s, *REGULAR, witnesses=True),
    "completely_regular": lambda s: forall_exists(s, *COMPLETELY_REGULAR, witnesses=True),
    "group_like": lambda s: forall_exists(s, *GROUP_LIKE, witnesses=True),
    "left_group_like": lambda s: forall_exists(s, *LEFT_GROUP_LIKE, witnesses=True),
    "right_group_like": lambda s: forall_exists(s, *RIGHT_GROUP_LIKE, witnesses=True),
    "simple": lambda s: _simple(s, Side.TWO_SIDED),
    "left_simple": lambda s: _simple(s, Side.LEFT),
    "right_simple": lambda s: _simple(s, Side.RIGHT),
    "t_simple": lambda s: _conjunction(
        ("left", lambda: _simple(s, Side.LEFT)),
        ("right", lambda: _simple(s, Side.RIGHT)),
    ),
    "clifford": lambda s: _clifford_scan(s, True),
    "left_clifford": _left_clifford,
    "inverse": _inverse,
    "h_commutative": lambda s: forall_exists(s, *H_COMMUTATIVE, witnesses=True),
    "completely_simple": lambda s: _conjunction(
        ("simple", lambda: _simple(s, Side.TWO_SIDED)),
        ("completely_regular", lambda: carrier_scan(s, COMPLETELY_REGULAR)),
    ),
}

PREDICATE_ORDER = tuple(PREDICATES)

REQUIRES_REGULAR = frozenset(
    {"left_group_like", "right_group_like", "clifford", "left_clifford", "inverse"}
)


def predicate(s: OrderedSemigroup, name: str) -> PredicateResult:
    """Evaluate one registry predicate with least witness or counterexample."""
    fn = PREDICATES.get(name)
    if fn is None:
        raise UnknownPredicate(name)
    if name in REQUIRES_REGULAR:
        _require("regular", name, s)
    holds, ce, wits = fn(s)
    if holds:
        return PredicateResult(name, True, witnesses=wits)
    return PredicateResult(name, False, counterexample=ce)


# ---------------------------------------------------------------------------
# check registration


# id -> (structure -> BundleResult), filled by ``_check`` in definition order
CHECKS: dict[str, Callable[[OrderedSemigroup], BundleResult]] = {}


def _check(check_id: str, premise: str | None = None, groups=None):
    """Register a builder of the conditions of check_id as ``CHECKS[check_id]``.

    The registered check raises NotApplicable, with the premise's note, where
    the named premise fails on s, and otherwise bundles ``build(s)`` under
    groups (default: one equivalence of all conditions)."""

    def register(build):
        def run(s) -> BundleResult:
            if premise is not None:
                _require(premise, check_id, s)
            return make_bundle(check_id, build(s), groups)

        CHECKS[check_id] = run
        return build

    return register


# ---------------------------------------------------------------------------
# equivalence bundles


@_check("CR-EQ5")
def _cr_eq5(s):
    return (
        _cond("a in (a^2 S a^2] for all a", carrier_scan(s, COMPLETELY_REGULAR)),
        _cond(
            "a in (a^2 S a] and a in (a S a^2] for all a",
            forall_exists(s, 1, lambda tb, a: ((a, tb[a][a], a), (a, a, tb[a][a]))),
        ),
        _cond(
            "a in (a^2 S a] and a in (S a^2] for all a",
            forall_exists(s, 1, lambda tb, a: ((a, tb[a][a], a), (a, None, tb[a][a]))),
        ),
        _cond(
            "a in (a S a^2] and a in (a^2 S] for all a",
            forall_exists(s, 1, lambda tb, a: ((a, a, tb[a][a]), (a, tb[a][a], None))),
        ),
        _cond(
            "regular, and a in (a^2 S] and a in (S a^2] for all a",
            _then(carrier_scan(s, REGULAR), forall_exists, s, 1, lambda tb, a: ((a, tb[a][a], None), (a, None, tb[a][a]))),
        ),
    )


@_check(
    "GL-CHAR",
    groups=(ConditionGroup("equivalence", (0, 1)), ConditionGroup("equivalence", (2, 3))),
)
def _gl_char(s):
    return (
        _cond(
            "group like: a <= xb and a <= by solvable for all a, b",
            carrier_scan(s, GROUP_LIKE),
        ),
        _cond(
            "a in (b S b] for all a, b",
            forall_exists(s, 2, lambda tb, a, b: ((a, b, b),)),
        ),
        _cond(
            "left group like: regular and a <= xb solvable for all a, b",
            _regular_then(s, carrier_scan, LEFT_GROUP_LIKE),
        ),
        _cond(
            "a in (a S b] for all a, b",
            forall_exists(s, 2, lambda tb, a, b: ((a, a, b),)),
        ),
    )


@_check("GL-HREL", "regular")
def _gl_hrel(s):
    ids = green_relation(s, "H").class_ids
    return (
        _cond("group like", carrier_scan(s, GROUP_LIKE)),
        _cond(
            "all ordered idempotents lie in one H-class",
            first_failure(
                combinations(bits(idempotent_mask(s)), 2),
                lambda e, f: ids[e] == ids[f],
            ),
        ),
    )


@_check("INV-COMM", "regular")
def _inv_comm(s):
    return (
        _cond("ordered inverses of each element are H-related", _inverse(s)),
        _cond(
            "ef <= f x e solvable for all ordered idempotents e, f",
            witness_scan(
                s,
                product(bits(idempotent_mask(s)), repeat=2),
                lambda tb, e, f: ((tb[e][f], f, e),),
            ),
        ),
    )


@_check("CR-HCOMM", "h_commutative")
def _cr_hcomm(s):
    return (
        _cond("regular", carrier_scan(s, REGULAR)),
        _cond("completely regular", carrier_scan(s, COMPLETELY_REGULAR)),
    )


@_check("CR-INV")
def _cr_inv(s):
    def good_inverse(tb, a, ap):  # aa' <= a'ua and a'a <= ava'
        return (tb[a][ap], ap, a), (tb[ap][a], a, ap)

    def has_inverse(a):
        return any(
            witness_scan(s, ((a, ap),), good_inverse)[0] for ap in bits(inverse_mask(s, a))
        )

    return (
        _cond("completely regular", carrier_scan(s, COMPLETELY_REGULAR)),
        _cond(
            "each a has an ordered inverse a' with aa' <= a'ua and a'a <= ava'",
            first_failure(((a,) for a in range(s.size)), has_inverse),
        ),
    )


def _union_of_group_like(s):
    """Is the carrier covered by product-closed group-like subsets?  The
    least element that no such subset contains fails: each element a that
    is not yet covered walks the subsets holding its powers a, a^2, ...,
    which every closed subset holding a holds, in ascending order, up to
    the first group-like one."""
    limits.check("ideals", s.size)
    table, full = s.table, full_mask(s)
    covered = 0
    while covered != full:
        low = ~covered & (covered + 1)  # the least element not yet covered
        a = low.bit_length() - 1
        powers, p = low, table[a][a]
        while not (powers >> p) & 1:  # a, a^2, ... up to the first repeat
            powers |= 1 << p
            p = table[p][a]
        others = full & ~powers
        rest = 0
        while not _group_like_subsemigroup(s, rest | powers):
            rest = (rest - others) & others  # the next subset of the others
            if not rest:
                return False, (a,), {}
        covered |= rest | powers
    return True, None, {}


def _h_classes_group_like(s):
    """Every H-class is a group like ordered subsemigroup, once per structure."""
    return s._cache.get("h_group_like") or _cached(
        s, "h_group_like", lambda: _classes_all(s, green_relation(s, "H"), _group_like_subsemigroup)
    )


@_check("CR-HCLASS")
def _cr_hclass(s):
    return (
        _cond("completely regular", carrier_scan(s, COMPLETELY_REGULAR)),
        _cond("every H-class is a group like ordered subsemigroup", _h_classes_group_like(s)),
        _cond(
            "carrier is a union of group like ordered subsemigroups",
            _union_of_group_like(s),
        ),
    )


@_check("CL-EQ", "regular")
def _cl_eq(s):
    lrel = green_relation(s, "L")
    rrel = green_relation(s, "R")
    return (
        _cond("clifford: ae <= eua and ea <= ave solvable", _clifford(s)),
        _cond(
            "L = R",
            _relation_pairs(s, lambda a, b: lrel.same(a, b) == rrel.same(a, b)),
        ),
        _cond("(aS] = (Sa] for all a", _compare_aS_Sa(s, range(s.size), True)),
        _cond(
            "(eS] = (Se] for all ordered idempotents e",
            _compare_aS_Sa(s, bits(idempotent_mask(s)), True),
        ),
    )


@_check("CL-HCOMM", "regular")
def _cl_hcomm(s):
    return (
        _cond("clifford: ae <= eua and ea <= ave solvable", _clifford(s)),
        _cond(
            "h-commutative: ab <= bxa solvable for all a, b",
            carrier_scan(s, H_COMMUTATIVE),
        ),
    )


@_check("CL-CRESEF")
def _cl_cresef(s):
    idem = list(bits(idempotent_mask(s)))
    # every m in eSf must lie in (fSe]
    e_s_f = ((e, f, m) for e in idem for f in idem for m in bits(sandwich_mask(s, e, f)))
    return (
        _cond("regular with the clifford condition", _regular_then(s, _clifford)),
        _cond(
            "completely regular, and eSf inside (f S e] for all ordered idempotents",
            _then(
                carrier_scan(s, COMPLETELY_REGULAR),
                witness_scan,
                s,
                e_s_f,
                lambda tb, e, f, m: ((m, f, e),),
            ),
        ),
    )


@_check("CL-CRINV")
def _cl_crinv(s):
    return (
        _cond("regular with the clifford condition", _regular_then(s, _clifford)),
        _cond(
            "completely regular and inverse",
            _then(carrier_scan(s, COMPLETELY_REGULAR), _inverse, s),
        ),
    )


@_check("LCL-EQ5", "regular")
def _lcl_eq5(s):
    idem = idempotent_mask(s)
    rrel = green_relation(s, "R")
    lrel = green_relation(s, "L")
    return (
        _cond("left clifford: (aS] inside (Sa] for all a", _left_clifford(s)),
        _cond(
            "(eS] inside (Se] for all ordered idempotents e",
            _compare_aS_Sa(s, bits(idem), False),
        ),
        _cond(
            "ea <= xe solvable for all a and ordered idempotents e",
            witness_scan(
                s,
                product(range(s.size), bits(idem)),
                lambda tb, a, e: ((tb[e][a], None, e),),
            ),
        ),
        _cond(
            "ab <= xa solvable for all a, b",
            forall_exists(s, 2, lambda tb, a, b: ((tb[a][b], None, a),)),
        ),
        _cond(
            "R inside L",
            _relation_pairs(s, lambda a, b: lrel.same(a, b) or not rrel.same(a, b)),
        ),
    )


@_check("LCL-EQ2")
def _lcl_eq2(s):
    return (
        _cond(
            "regular with the left clifford condition",
            _regular_then(s, _left_clifford),
        ),
        _cond(
            "a in (a S a^2] for all a, and ef in (ef S fe] for ordered idempotents",
            _then(
                forall_exists(s, 1, lambda tb, a: ((a, a, tb[a][a]),)),
                witness_scan,
                s,
                product(bits(idempotent_mask(s)), repeat=2),
                lambda tb, e, f: ((tb[e][f], tb[e][f], tb[f][e]),),
            ),
        ),
    )


# ---------------------------------------------------------------------------
# structure theorems


def _exists_csc_with_classes(s, test):
    """Some complete semilattice congruence has only classes passing test;
    the detail is the first such congruence's class ids."""
    for rel in complete_semilattice_congruences(s):
        if all(test(s, mask) for mask in rel.masks):
            return True, tuple(rel.class_ids), {}
    return False, None, {}


def _left_group_like_class(s, t: int) -> bool:
    """T is product-closed, T lies inside (Tb] for every b in T, and each
    a in T is regular in T: a <= axa for some x in T, so a is in (aTa]."""
    below, leq, col = below_masks(s), s.leq, columns(s)
    for b, tb, bt in _products(s, t):
        if (tb | bt) & ~t or t & ~_union(below, tb):
            return False
        if not any(leq[b][col[b][m]] for m in bits(bt)):  # b in ((bT)b]
            return False
    return True


def _completely_simple_class(s, t: int) -> bool:
    """T is product-closed, has no proper two-sided ideal of its own, since
    ({b} u Tb u bT u TbT] meets T in T for every b in T, and each a in T
    is completely regular in T: a is in (a^2 T a^2]."""
    below, leq, table, col = below_masks(s), s.leq, s.table, columns(s)
    left, right = [0] * s.size, [0] * s.size
    for b, tb, bt in _products(s, t):
        if (tb | bt) & ~t:
            return False
        left[b], right[b] = tb, bt
    for b in bits(t):
        # ({b} u Tb u bT u (Tb)T], where (Tb)T is the union of mT over m in Tb
        ideal = 1 << b | left[b] | right[b] | _union(right, left[b])
        bb = table[b][b]
        if t & ~_union(below, ideal) or not any(leq[b][col[bb][m]] for m in bits(right[bb])):
            return False
    return True


@_check("CR-LEASTCSC", groups=(ConditionGroup("implication", (0, 1, 2)),))
def _cr_leastcsc(s):
    j = green_relation(s, "J")
    props = relation_properties(s, j)
    return (
        _cond("completely regular", carrier_scan(s, COMPLETELY_REGULAR)),
        ConditionResult(
            "J equals the least complete semilattice congruence",
            j.class_ids == n_relation(s).class_ids,
        ),
        ConditionResult(
            "J is a complete semilattice congruence",
            props.complete_semilattice,
            props.counterexamples.get("complete_semilattice"),
        ),
    )


@_check("CR-CSDECOMP")
def _cr_csdecomp(s):
    return (
        _cond("completely regular", carrier_scan(s, COMPLETELY_REGULAR)),
        _cond(
            "some complete semilattice congruence has completely simple classes",
            _exists_csc_with_classes(s, _completely_simple_class),
        ),
    )


@_check("CR-HCLASS-GL", groups=(ConditionGroup("implication", (0, 1, 2, 3)),))
def _cr_hclass_gl(s):
    h = green_relation(s, "H")
    closed = _classes_all(s, h, _closed)
    table, leq = s.table, s.leq

    def has_h(a):  # one h in a's H-class with a <= aha, a <= a^2 h, a <= h a^2
        aa, la = table[a][a], leq[a]
        return any(
            la[table[table[a][x]][a]] and la[table[aa][x]] and la[table[x][aa]]
            for x in bits(h.masks[h.class_ids[a]])
        )

    return (
        _cond("completely regular", carrier_scan(s, COMPLETELY_REGULAR)),
        _cond("every H-class is product-closed", closed),
        _cond("every H-class is a group like ordered subsemigroup", _h_classes_group_like(s)),
        _cond(
            "every a has h in its H-class with a <= aha, a <= a^2 h, a <= h a^2",
            _then(
                closed,
                first_failure,
                ((a,) for mask in h.masks for a in bits(mask)),
                has_h,
            ),
        ),
    )


@_check(
    "CL-DECOMP",
    groups=(ConditionGroup("equivalence", (0, 1, 2)), ConditionGroup("implication", (0, 3))),
)
def _cl_decomp(s):
    return (
        _cond("regular with the clifford condition", _regular_then(s, _clifford)),
        _cond(
            "every least-congruence class is group like",
            _classes_all(s, n_relation(s), _group_like_subsemigroup),
        ),
        _cond(
            "some complete semilattice congruence has group like classes",
            _exists_csc_with_classes(s, _group_like_subsemigroup),
        ),
        ConditionResult(
            "J = H",
            green_relation(s, "J").class_ids == green_relation(s, "H").class_ids,
        ),
    )


@_check("LCL-LEASTCSC")
def _lcl_leastcsc(s):
    # "L is the least csc" alone does not force regularity (the order can
    # make every principal left ideal full on a non-regular structure), so
    # the ambient regularity of the left clifford notion is conjoined to
    # both sides.
    def l_is_least():
        lrel = green_relation(s, "L")
        props = relation_properties(s, lrel)
        holds = props.complete_semilattice and lrel.class_ids == n_relation(s).class_ids
        return holds, None if holds else props.counterexamples.get("complete_semilattice"), {}

    return (
        _cond(
            "regular with the left clifford condition",
            _regular_then(s, _left_clifford),
        ),
        _cond(
            "regular, and L is the least complete semilattice congruence",
            _then(carrier_scan(s, REGULAR), l_is_least),
        ),
    )


@_check(
    "LCL-DECOMP",
    groups=(ConditionGroup("equivalence", (0, 1)), ConditionGroup("implication", (0, 2))),
)
def _lcl_decomp(s):
    return (
        _cond(
            "regular with the left clifford condition",
            _regular_then(s, _left_clifford),
        ),
        _cond(
            "some complete semilattice congruence has left group like classes",
            _exists_csc_with_classes(s, _left_group_like_class),
        ),
        _cond(
            "every least-congruence class is left group like",
            _classes_all(s, n_relation(s), _left_group_like_class),
        ),
    )


CHECK_IDS = tuple(CHECKS)
BUNDLE_ORDER = CHECK_IDS[: CHECK_IDS.index("CR-LEASTCSC")]
THEOREM_ORDER = CHECK_IDS[len(BUNDLE_ORDER) :]


def equivalence_bundle(s: OrderedSemigroup, bundle_id: str) -> BundleResult:
    """Evaluate one characterization bundle; every condition independently."""
    if bundle_id not in BUNDLE_ORDER:
        raise UnknownBundle(bundle_id)
    return CHECKS[bundle_id](s)


def structure_theorem_check(s: OrderedSemigroup, theorem_id: str) -> BundleResult:
    """Evaluate one structure theorem; both sides computed independently."""
    if theorem_id not in THEOREM_ORDER:
        raise UnknownTheorem(theorem_id)
    return CHECKS[theorem_id](s)


# ---------------------------------------------------------------------------
# whole-structure report


def _implies(premise, conclusion, what: str):
    if premise and conclusion is not True:
        raise InvariantViolation(f"implication failed: {what}")


def _check_implications(verdicts, regular_flag: bool) -> None:
    def holds(name):
        return verdicts[name].holds

    _implies(holds("group_like"), holds("t_simple"), "group_like -> t_simple")
    _implies(
        holds("group_like"),
        holds("completely_regular"),
        "group_like -> completely_regular",
    )
    _implies(holds("completely_regular"), holds("regular"), "completely_regular -> regular")
    _implies(holds("t_simple"), holds("regular"), "t_simple -> regular")
    if regular_flag:
        _implies(holds("clifford"), holds("completely_regular"), "clifford -> completely_regular")
        _implies(holds("clifford"), holds("left_clifford"), "clifford -> left_clifford")
        both = holds("left_group_like") and holds("right_group_like")
        if holds("group_like") != both:
            raise InvariantViolation(
                "group_like must equal left_group_like and right_group_like"
            )
    elif holds("group_like"):
        raise InvariantViolation("group_like on a non-regular structure")


def classify(s: OrderedSemigroup) -> ClassificationReport:
    """Evaluate every registry predicate and every bundle on one structure."""
    verdicts = {}
    for name in PREDICATE_ORDER:
        try:
            verdicts[name] = predicate(s, name)
        except NotApplicable as exc:
            verdicts[name] = PredicateResult(name, None, note=exc.reason)
    bundles = []
    for bundle_id in BUNDLE_ORDER:
        try:
            bundles.append(equivalence_bundle(s, bundle_id))
        except NotApplicable as exc:
            bundles.append(
                BundleResult(bundle_id, (), True, applicable=False, note=exc.reason)
            )
        except SizeLimit as exc:
            bundles.append(
                BundleResult(bundle_id, (), True, applicable=False, note=str(exc))
            )
    regular_flag = is_regular_structure(s)
    _check_implications(verdicts, regular_flag)
    return ClassificationReport(s, verdicts, regular_flag, tuple(bundles))
