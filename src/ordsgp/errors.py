"""Errors raised by the ordered-semigroup toolkit.

Every structural failure carries the least violating tuple so reports and
tests can pin the exact counterexample.
"""

from __future__ import annotations


class OrdsgpError(Exception):
    """Base class for all toolkit errors."""


class NotAssociative(OrdsgpError):
    def __init__(self, i: int, j: int, k: int):
        self.triple = (i, j, k)
        super().__init__(f"table is not associative at ({i},{j},{k}): (ij)k != i(jk)")


class NotAntisymmetric(OrdsgpError):
    def __init__(self, i: int, j: int):
        self.pair = (i, j)
        super().__init__(f"order is not antisymmetric: both {i} <= {j} and {j} <= {i}")


class NotTransitive(OrdsgpError):
    def __init__(self, i: int, j: int, k: int):
        self.triple = (i, j, k)
        super().__init__(
            f"order is not transitive: {i} <= {j} and {j} <= {k} but not {i} <= {k}"
        )


class NotCompatible(OrdsgpError):
    def __init__(self, a: int, b: int, c: int, side: str):
        self.witness = (a, b, c, side)
        if side == "left":
            detail = f"{c}*{a} <= {c}*{b} fails"
        else:
            detail = f"{a}*{c} <= {b}*{c} fails"
        super().__init__(f"order is not compatible: {a} <= {b} but {detail}")


class NotClosed(OrdsgpError):
    def __init__(self, a: int, b: int):
        self.pair = (a, b)
        super().__init__(f"subset is not closed under the product: {a}*{b} lies outside")


class EmptySet(OrdsgpError):
    def __init__(self, what: str = "set"):
        super().__init__(f"{what} must be nonempty")


class SizeLimit(OrdsgpError):
    def __init__(self, guard: str, requested: int, bound: int):
        self.guard = guard
        self.requested = requested
        self.bound = bound
        super().__init__(
            f"size {requested} exceeds the '{guard}' guard ({bound}); "
            "set ORDSGP_LIMITS to override"
        )


class NotRegular(OrdsgpError):
    def __init__(self, element: int):
        self.element = element
        super().__init__(f"structure is not regular: element {element} is not regular")


class NotIdempotent(OrdsgpError):
    def __init__(self, element: int):
        self.element = element
        super().__init__(f"element {element} is not an ordered idempotent (e <= e*e fails)")


class UnknownPredicate(OrdsgpError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown predicate: {name!r}")


class UnknownBundle(OrdsgpError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown bundle id: {name!r}")


class UnknownTheorem(OrdsgpError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown theorem id: {name!r}")


class BadEnumeration(OrdsgpError, ValueError):
    """An enumeration order or resume token that names no position."""


class NotApplicable(OrdsgpError):
    def __init__(self, name: str, reason: str):
        self.name = name
        self.reason = reason
        super().__init__(f"{name} is not applicable: {reason}")


class NotPartition(OrdsgpError):
    def __init__(self, reason: str):
        super().__init__(f"relation is not a partition of the carrier: {reason}")


class NotCompleteSemilattice(OrdsgpError):
    def __init__(self, flag: str, counterexample=None):
        self.flag = flag
        self.counterexample = counterexample
        extra = f" (counterexample {counterexample})" if counterexample else ""
        super().__init__(f"relation fails the '{flag}' congruence requirement{extra}")


class NotClosedClass(OrdsgpError):
    def __init__(self, alpha: int, beta: int):
        self.pair = (alpha, beta)
        super().__init__(
            f"products of classes {alpha} and {beta} do not land in a single class"
        )


class NoJoin(OrdsgpError):
    def __init__(self, a: int, b: int):
        self.pair = (a, b)
        super().__init__(f"elements {a} and {b} have no least upper bound")


class NotMorphism(OrdsgpError):
    def __init__(self, x: int, y: int, reason: str = "product"):
        self.pair = (x, y)
        self.reason = reason
        if reason == "order":
            msg = f"map does not respect the order at pair ({x},{y})"
        else:
            msg = f"map does not respect the product at pair ({x},{y})"
        super().__init__(msg)


class ParseError(OrdsgpError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class InvariantViolation(OrdsgpError):
    """An internal consistency law failed; indicates a genuine defect."""
