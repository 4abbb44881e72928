"""Result records shared by the classification and decomposition layers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple


@dataclass(frozen=True)
class PredicateResult:
    """Verdict for one structure-level predicate.

    ``holds`` is None when the predicate does not apply (a regularity
    premise failed); ``witnesses`` maps argument tuples to least witness
    tuples for a true verdict, ``counterexample`` is the least failing
    tuple for a false one.
    """

    name: str
    holds: bool | None
    witnesses: dict | None = None
    counterexample: tuple | None = None
    note: str = ""


# ConditionResult and BundleResult are built for every condition and check
# of a sweep, so they are named tuples: immutable, and cheaper to make than
# frozen dataclasses.
class ConditionResult(NamedTuple):
    label: str
    holds: bool
    detail: tuple | None = None


def _cond(label, result) -> ConditionResult:
    """A condition from a scan's (holds, least counterexample, witnesses)."""
    return ConditionResult(label, result[0], result[1])


@dataclass(frozen=True)
class ConditionGroup:
    """How a slice of a bundle's conditions is judged.

    mode "equivalence": all verdicts in the group must be equal.
    mode "implication": if the first condition holds, the rest must.
    mode "claim": every condition must hold.
    """

    mode: str
    indices: tuple[int, ...]


class BundleResult(NamedTuple):
    bundle_id: str
    conditions: tuple[ConditionResult, ...]
    agree: bool
    applicable: bool = True
    note: str = ""


def _group_ok(group: ConditionGroup, conditions) -> bool:
    verdicts = [conditions[i].holds for i in group.indices]
    if group.mode == "equivalence":
        return len(set(verdicts)) == 1
    if group.mode == "implication":
        return (not verdicts[0]) or all(verdicts[1:])
    if group.mode == "claim":
        return all(verdicts)
    raise ValueError(f"unknown group mode: {group.mode!r}")


def make_bundle(bundle_id: str, conditions, groups=None) -> BundleResult:
    """Judge the conditions under the groups; the default is one
    equivalence of all of them."""
    conditions = tuple(conditions)
    if groups is None:
        agree = len({c.holds for c in conditions}) == 1
    else:
        agree = all(_group_ok(g, conditions) for g in groups)
    return BundleResult(bundle_id, conditions, agree)


@dataclass(frozen=True, eq=False)
class ClassificationReport:
    """Every registry predicate plus every equivalence bundle for one structure."""

    structure: object
    verdicts: dict = field(repr=False)
    regularity_flag: bool = False
    bundle_results: tuple[BundleResult, ...] = ()
