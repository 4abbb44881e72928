"""Structure-level predicates and the executable equivalence bundles.

A predicate is a named property of a whole structure (regular, completely
regular, group like, Clifford, ...).  A bundle groups together conditions
that a characterization theorem asserts to be equivalent; evaluating a
bundle computes every condition independently, from its own definition,
and reports whether they all agree.  A bundle whose conditions disagree on
any finite structure falsifies the theorem it encodes, so the enumeration
sweeps treat a failed ``agree`` flag as a build-stopping finding.

Nearly every definition reads "for all args there is x with
lhs <= left*x*right", and each such condition is a terms function for the
one witness search of ``elements`` (``witness_scan``): witnesses are
tried in ascending order, so they are least, and argument tuples run in
ascending lexicographic order, so a counterexample is the least failing
tuple.  Membership t in (XSY] is the same search, for x with t <= X*x*Y.
The remaining conditions (ideal comparisons, Green's relations) are
first-failure scans in the same ascending order.  No condition is computed
from another condition's result: conditions share terms, helpers and the
regularity premise, never a verdict, so the sides of a bundle stay
independent.

Predicates with a regularity premise (left/right group like, Clifford,
left Clifford, inverse) raise NotApplicable on non-regular structures
rather than returning a vacuous boolean.  Bundles evaluated on structures
outside such premises use the total forms (regular AND the condition) so
that equivalences remain meaningful on every input.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable

from . import limits
from .core import (
    OrderedSemigroup,
    bits,
    down_mask,
    full_mask,
    left_multiples,
    right_multiples,
    sandwich_mask,
)
from .elements import (
    COMPLETELY_REGULAR,
    H_COMMUTATIVE,
    REGULAR,
    forall_exists,
    idempotent_mask,
    inverse_mask,
    is_regular_structure,
    witness_scan,
)
from .errors import InvariantViolation, NotApplicable, SizeLimit, UnknownBundle, UnknownPredicate
from .ideals import Side, _principal_mask_in, green_relation
from .report import (
    BundleResult,
    ClassificationReport,
    ConditionGroup,
    ConditionResult,
    PredicateResult,
    make_bundle,
)


# ---------------------------------------------------------------------------
# conditions
#
# A condition returns (holds, counterexample, witnesses).  Quantified
# conditions are (arity, terms) specs for ``forall_exists``, which ranges
# over T^arity for an optional carrier mask T (used for classes of a
# decomposition; None means the full carrier).  The rest are first-failure
# scans over explicitly listed argument tuples.

LEFT_GROUP_LIKE = (2, lambda tb, a, b: ((a, None, b),))  # a <= x*b
RIGHT_GROUP_LIKE = (2, lambda tb, a, b: ((a, b, None),))  # a <= b*y
GROUP_LIKE = (2, lambda tb, a, b: ((a, None, b), (a, b, None)))


def _first_failure(args, ok):
    """The first argument tuple (in the order given) for which ok fails."""
    for argt in args:
        if not ok(*argt):
            return False, argt, {}
    return True, None, {}


def _then(first, rest, *args):
    """``first``, and only once it holds, ``rest(*args)``."""
    return rest(*args) if first[0] else first


def _regular_then(s, scan, *args):
    """Total form of a regularity-gated condition: regular, and then the scan."""
    if not is_regular_structure(s):
        return False, ("not-regular",), {}
    return scan(s, *args)


def _simple(s, side, t=None):
    """No proper ideal of the given side: every principal ideal is everything."""
    t = full_mask(s) if t is None else t
    for a in bits(t):
        m = _principal_mask_in(s, t, a, side)
        if m != t:
            return False, (a, next(bits(t & ~m))), {}
    return True, None, {}


def _conjunction(*parts):
    """Every (label, thunk) part holds; a failure's counterexample starts with its label."""
    for label, part in parts:
        holds, ce, _ = part()
        if not holds:
            return False, (label,) + ce, {}
    return True, None, {}


def _closed(s, mask: int) -> bool:
    table = s.table
    for a in bits(mask):
        row = table[a]
        for b in bits(mask):
            if not (mask >> row[b]) & 1:
                return False
    return True


def _group_like_subsemigroup(s, mask: int) -> bool:
    return _closed(s, mask) and forall_exists(s, *GROUP_LIKE, mask)[0]


def _classes_all(rel, check):
    """Every class of rel passes check; the counterexample is the first failing class."""
    for cls_set in rel.classes:
        if not check(cls_set.mask):
            return False, tuple(cls_set), {}
    return True, None, {}


def _clifford(s, witnesses=False):
    """For every a and ordered idempotent e: ae <= e*u*a and ea <= a*v*e."""
    return witness_scan(
        s,
        product(range(s.size), bits(idempotent_mask(s))),
        lambda tb, a, e: ((tb[a][e], e, a), (tb[e][a], a, e)),
        None,
        witnesses,
    )


def _compare_aS_Sa(s, elems, equal: bool):
    """(aS] = (Sa] (equal) or (aS] inside (Sa] for each a; detail: a and the least outlier."""
    for a in elems:
        aS = down_mask(s, right_multiples(s, a))
        Sa = down_mask(s, left_multiples(s, a))
        outliers = aS ^ Sa if equal else aS & ~Sa
        if outliers:
            return False, (a, next(bits(outliers))), {}
    return True, None, {}


def _left_clifford(s):
    """(aS] is contained in (Sa] for every a."""
    return _compare_aS_Sa(s, range(s.size), False)


def _inverse(s):
    """Any two ordered inverses of the same element are H-related."""
    ids = green_relation(s, "H").class_ids
    return _first_failure(
        (
            (a, a1, a2)
            for a in range(s.size)
            for a1, a2 in combinations(bits(inverse_mask(s, a)), 2)
        ),
        lambda a, a1, a2: ids[a1] == ids[a2],
    )


def _relation_pairs(s, ok):
    """First pair (a, b) of carrier elements failing ok."""
    return _first_failure(product(range(s.size), repeat=2), ok)


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
    "clifford": lambda s: _clifford(s, witnesses=True),
    "left_clifford": _left_clifford,
    "inverse": _inverse,
    "h_commutative": lambda s: forall_exists(s, *H_COMMUTATIVE, witnesses=True),
    "completely_simple": lambda s: _conjunction(
        ("simple", lambda: _simple(s, Side.TWO_SIDED)),
        ("completely_regular", lambda: forall_exists(s, *COMPLETELY_REGULAR)),
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
    if name in REQUIRES_REGULAR and not is_regular_structure(s):
        raise NotApplicable(name, "structure is not regular")
    holds, ce, wits = fn(s)
    if holds:
        return PredicateResult(name, True, witnesses=wits)
    return PredicateResult(name, False, counterexample=ce)


# ---------------------------------------------------------------------------
# equivalence bundles


@dataclass(frozen=True)
class _Bundle:
    premise: str | None
    build: Callable


def _cond(label, result) -> ConditionResult:
    return ConditionResult(label, result[0], result[1])


def _build_cr_eq5(s) -> BundleResult:
    return make_bundle(
        "CR-EQ5",
        (
            _cond("a in (a^2 S a^2] for all a", forall_exists(s, *COMPLETELY_REGULAR)),
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
                _then(forall_exists(s, *REGULAR), forall_exists, s, 1, lambda tb, a: ((a, tb[a][a], None), (a, None, tb[a][a]))),
            ),
        ),
    )


def _build_gl_char(s) -> BundleResult:
    return make_bundle(
        "GL-CHAR",
        (
            _cond(
                "group like: a <= xb and a <= by solvable for all a, b",
                forall_exists(s, *GROUP_LIKE),
            ),
            _cond(
                "a in (b S b] for all a, b",
                forall_exists(s, 2, lambda tb, a, b: ((a, b, b),)),
            ),
            _cond(
                "left group like: regular and a <= xb solvable for all a, b",
                _regular_then(s, forall_exists, *LEFT_GROUP_LIKE),
            ),
            _cond(
                "a in (a S b] for all a, b",
                forall_exists(s, 2, lambda tb, a, b: ((a, a, b),)),
            ),
        ),
        (
            ConditionGroup("equivalence", (0, 1)),
            ConditionGroup("equivalence", (2, 3)),
        ),
    )


def _build_gl_hrel(s) -> BundleResult:
    ids = green_relation(s, "H").class_ids
    return make_bundle(
        "GL-HREL",
        (
            _cond("group like", forall_exists(s, *GROUP_LIKE)),
            _cond(
                "all ordered idempotents lie in one H-class",
                _first_failure(
                    combinations(bits(idempotent_mask(s)), 2),
                    lambda e, f: ids[e] == ids[f],
                ),
            ),
        ),
    )


def _build_inv_comm(s) -> BundleResult:
    return make_bundle(
        "INV-COMM",
        (
            _cond("ordered inverses of each element are H-related", _inverse(s)),
            _cond(
                "ef <= f x e solvable for all ordered idempotents e, f",
                witness_scan(
                    s,
                    product(bits(idempotent_mask(s)), repeat=2),
                    lambda tb, e, f: ((tb[e][f], f, e),),
                ),
            ),
        ),
    )


def _build_cr_hcomm(s) -> BundleResult:
    return make_bundle(
        "CR-HCOMM",
        (
            _cond("regular", forall_exists(s, *REGULAR)),
            _cond("completely regular", forall_exists(s, *COMPLETELY_REGULAR)),
        ),
    )


def _build_cr_inv(s) -> BundleResult:
    def good_inverse(tb, a, ap):  # aa' <= a'ua and a'a <= ava'
        return (tb[a][ap], ap, a), (tb[ap][a], a, ap)

    def has_inverse(a):
        return any(
            witness_scan(s, ((a, ap),), good_inverse)[0] for ap in bits(inverse_mask(s, a))
        )

    return make_bundle(
        "CR-INV",
        (
            _cond("completely regular", forall_exists(s, *COMPLETELY_REGULAR)),
            _cond(
                "each a has an ordered inverse a' with aa' <= a'ua and a'a <= ava'",
                _first_failure(((a,) for a in range(s.size)), has_inverse),
            ),
        ),
    )


def _union_of_group_like(s):
    """Is the carrier covered by product-closed group-like subsets?"""
    limits.check("ideals", s.size)
    covered = 0
    full = full_mask(s)
    for mask in range(1, full + 1):
        if covered | mask == covered:
            continue
        if _group_like_subsemigroup(s, mask):
            covered |= mask
            if covered == full:
                return True, None, {}
    return False, (next(bits(full & ~covered)),), {}


def _build_cr_hclass(s) -> BundleResult:
    h = green_relation(s, "H")
    return make_bundle(
        "CR-HCLASS",
        (
            _cond("completely regular", forall_exists(s, *COMPLETELY_REGULAR)),
            _cond(
                "every H-class is a group like ordered subsemigroup",
                _classes_all(h, lambda m: _group_like_subsemigroup(s, m)),
            ),
            _cond(
                "carrier is a union of group like ordered subsemigroups",
                _union_of_group_like(s),
            ),
        ),
    )


def _build_cl_eq(s) -> BundleResult:
    lrel = green_relation(s, "L")
    rrel = green_relation(s, "R")
    return make_bundle(
        "CL-EQ",
        (
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
        ),
    )


def _build_cl_hcomm(s) -> BundleResult:
    return make_bundle(
        "CL-HCOMM",
        (
            _cond("clifford: ae <= eua and ea <= ave solvable", _clifford(s)),
            _cond(
                "h-commutative: ab <= bxa solvable for all a, b",
                forall_exists(s, *H_COMMUTATIVE),
            ),
        ),
    )


def _build_cl_cresef(s) -> BundleResult:
    idem = list(bits(idempotent_mask(s)))
    # every m in eSf must lie in (fSe]
    e_s_f = ((e, f, m) for e in idem for f in idem for m in bits(sandwich_mask(s, e, f)))
    return make_bundle(
        "CL-CRESEF",
        (
            _cond("regular with the clifford condition", _regular_then(s, _clifford)),
            _cond(
                "completely regular, and eSf inside (f S e] for all ordered idempotents",
                _then(
                    forall_exists(s, *COMPLETELY_REGULAR),
                    witness_scan,
                    s,
                    e_s_f,
                    lambda tb, e, f, m: ((m, f, e),),
                ),
            ),
        ),
    )


def _build_cl_crinv(s) -> BundleResult:
    return make_bundle(
        "CL-CRINV",
        (
            _cond("regular with the clifford condition", _regular_then(s, _clifford)),
            _cond(
                "completely regular and inverse",
                _then(forall_exists(s, *COMPLETELY_REGULAR), _inverse, s),
            ),
        ),
    )


def _build_lcl_eq5(s) -> BundleResult:
    idem = idempotent_mask(s)
    rrel = green_relation(s, "R")
    lrel = green_relation(s, "L")
    return make_bundle(
        "LCL-EQ5",
        (
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
        ),
    )


def _build_lcl_eq2(s) -> BundleResult:
    return make_bundle(
        "LCL-EQ2",
        (
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
        ),
    )


BUNDLES: dict[str, _Bundle] = {
    "CR-EQ5": _Bundle(None, _build_cr_eq5),
    "GL-CHAR": _Bundle(None, _build_gl_char),
    "GL-HREL": _Bundle("regular", _build_gl_hrel),
    "INV-COMM": _Bundle("regular", _build_inv_comm),
    "CR-HCOMM": _Bundle("h_commutative", _build_cr_hcomm),
    "CR-INV": _Bundle(None, _build_cr_inv),
    "CR-HCLASS": _Bundle(None, _build_cr_hclass),
    "CL-EQ": _Bundle("regular", _build_cl_eq),
    "CL-HCOMM": _Bundle("regular", _build_cl_hcomm),
    "CL-CRESEF": _Bundle(None, _build_cl_cresef),
    "CL-CRINV": _Bundle(None, _build_cl_crinv),
    "LCL-EQ5": _Bundle("regular", _build_lcl_eq5),
    "LCL-EQ2": _Bundle(None, _build_lcl_eq2),
}

BUNDLE_ORDER = tuple(BUNDLES)


def equivalence_bundle(s: OrderedSemigroup, bundle_id: str) -> BundleResult:
    """Evaluate one characterization bundle; every condition independently."""
    spec = BUNDLES.get(bundle_id)
    if spec is None:
        raise UnknownBundle(bundle_id)
    if spec.premise == "regular" and not is_regular_structure(s):
        raise NotApplicable(bundle_id, "requires a regular structure")
    if spec.premise == "h_commutative" and not forall_exists(s, *H_COMMUTATIVE)[0]:
        raise NotApplicable(bundle_id, "requires an h-commutative structure")
    return spec.build(s)


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
                BundleResult(bundle_id, (), (), True, applicable=False, note=exc.reason)
            )
        except SizeLimit as exc:
            bundles.append(
                BundleResult(bundle_id, (), (), True, applicable=False, note=str(exc))
            )
    regular_flag = is_regular_structure(s)
    _check_implications(verdicts, regular_flag)
    return ClassificationReport(s, verdicts, regular_flag, tuple(bundles))
