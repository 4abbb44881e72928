"""Command-line surface.

Exit codes: 0 = success / all checks agree, 1 = a disagreement was found
(counterexample printed), 2 = input error.  Input errors print one
``error:`` line on stderr and no traceback; they include an unreadable
(missing or not UTF-8) or invalid document, an unknown check id,
``enumerate --order`` below 1 or above the size guard, a malformed
``--resume`` token, a token whose order index is out of range or whose
table is not associative, ``--workers`` below 1, a ``--sweep`` list that
names no check, and an ``ORDSGP_LIMITS`` entry that is malformed or names
no guard.

``enumerate`` sweeps the stream positions from the start (or from the
position after a ``--resume`` token) to the end, and prints the token of
the last position it swept.  ``--workers N`` prints the same lines as a
serial run, resume token included.  Both hashes are folded one table (or
one pool range) at a time, so its memory does not grow with the number
of structures in the stream.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .classification import BUNDLE_ORDER, CHECK_IDS, CHECKS, THEOREM_ORDER, classify
from .congruence import decompose
from .core import OrderedSemigroup, bits, induced_substructure, leq_pairs
from .enumeration import all_semigroup_tables, resume_position, resume_token
from .errors import NotApplicable, OrdsgpError
from .fileformat import parse_document, serialize_document
from .ideals import green_relation, n_relation
from .power import power_ordered_semigroup
from .report import BundleResult, ClassificationReport
from .sweep import sweep_order


def _read_structure(path: str, close_order: bool = False):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise OrdsgpError(f"cannot read {path}: {exc}") from exc
    return parse_document(text, close_order=close_order)


def _require_ordered(structure, command: str) -> OrderedSemigroup:
    if not isinstance(structure, OrderedSemigroup):
        raise OrdsgpError(f"'{command}' needs an ordered semigroup (kind: osg)")
    return structure


def _witnesses_json(witnesses):
    if not witnesses:
        return []
    return [
        {"args": list(args), "witness": list(wit)}
        for args, wit in sorted(witnesses.items())
    ]


def _bundle_json(result: BundleResult) -> dict:
    return {
        "id": result.bundle_id,
        "applicable": result.applicable,
        "agree": result.agree,
        "note": result.note,
        "conditions": [
            {
                "label": c.label,
                "holds": c.holds,
                "detail": list(c.detail) if c.detail else None,
            }
            for c in result.conditions
        ],
    }


def _structure_json(s) -> dict:
    data = {
        "size": s.size,
        "table": [list(row) for row in s.table],
    }
    if s.names:
        data["names"] = list(s.names)
    if isinstance(s, OrderedSemigroup):
        data["order"] = [list(p) for p in s.order_pairs()]
    return data


def _classification_json(report: ClassificationReport) -> dict:
    predicates = {}
    witnesses = {}
    for name, res in report.verdicts.items():
        if res.holds is None:
            predicates[name] = {"holds": None, "note": res.note}
        elif res.holds:
            predicates[name] = {"holds": True}
            witnesses[name] = _witnesses_json(res.witnesses)
        else:
            predicates[name] = {
                "holds": False,
                "counterexample": list(res.counterexample or ()),
            }
    return {
        "structure": _structure_json(report.structure),
        "regular": report.regularity_flag,
        "predicates": predicates,
        "bundles": [_bundle_json(b) for b in report.bundle_results],
        "witnesses": witnesses,
    }


def _print_json(data) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


def _bundle_text(result: BundleResult) -> list[str]:
    lines = []
    if not result.applicable:
        lines.append(f"{result.bundle_id}: not applicable ({result.note})")
        return lines
    verdict = "agree" if result.agree else "DISAGREE"
    lines.append(f"{result.bundle_id}: {verdict}")
    for c in result.conditions:
        mark = "true " if c.holds else "false"
        detail = f"  counterexample {tuple(c.detail)}" if (c.detail and not c.holds) else ""
        lines.append(f"  [{mark}] {c.label}{detail}")
    return lines


def cmd_validate(args) -> int:
    structure = _read_structure(args.file, args.close_order)
    kind = "ordered semigroup" if isinstance(structure, OrderedSemigroup) else "semigroup"
    print(f"valid {kind}: {structure.size} elements")
    return 0


def cmd_classify(args) -> int:
    structure = _require_ordered(_read_structure(args.file, args.close_order), "classify")
    report = classify(structure)
    if args.json:
        _print_json(_classification_json(report))
        return 0
    print(f"structure: {structure.size} elements")
    if not report.regularity_flag:
        print("note: structure is not regular")
    for name, res in report.verdicts.items():
        if res.holds is None:
            print(f"{name}: not applicable ({res.note})")
        elif res.holds:
            print(f"{name}: yes")
        else:
            print(f"{name}: no  counterexample {tuple(res.counterexample or ())}")
    for bundle in report.bundle_results:
        for line in _bundle_text(bundle):
            print(line)
    return 0


def cmd_green(args) -> int:
    structure = _require_ordered(_read_structure(args.file), "green")
    relation = green_relation(structure, args.kind)
    if args.json:
        _print_json(
            {
                "structure": _structure_json(structure),
                "kind": args.kind,
                "classes": [list(bits(m)) for m in relation.masks],
            }
        )
        return 0
    from .elements import is_regular_structure

    if not is_regular_structure(structure):
        print("note: structure is not regular; relations computed from principal ideals")
    body = " | ".join("{" + ",".join(map(str, bits(m))) + "}" for m in relation.masks)
    print(f"{args.kind}-classes: {body}")
    return 0


def cmd_decompose(args) -> int:
    structure = _require_ordered(_read_structure(args.file), "decompose")
    result = decompose(structure, n_relation(structure))
    if args.json:
        _print_json(
            {
                "structure": _structure_json(structure),
                "rho": "least-csc",
                "classes": [list(bits(m)) for m in result.rho.masks],
                "quotient_table": [list(r) for r in result.quotient_table],
                "quotient_order": [list(p) for p in leq_pairs(result.quotient_order)],
                "conditions": [
                    {"label": c.label, "holds": c.holds} for c in result.condition_verdicts
                ],
                "class_predicates": [
                    {name: res.holds for name, res in classify(part).verdicts.items()}
                    for part in (induced_substructure(structure, m) for m in result.rho.masks)
                ],
            }
        )
        return 0
    print(f"quotient semilattice: {result.quotient_size} classes")
    for i, m in enumerate(result.rho.masks):
        print(f"  class {i}: {{{','.join(map(str, bits(m)))}}}")
    for c in result.condition_verdicts:
        mark = "ok" if c.holds else "FAIL"
        print(f"  [{mark}] {c.label}")
    return 0


def cmd_power(args) -> int:
    structure = _read_structure(args.file)
    if isinstance(structure, OrderedSemigroup):
        raise OrdsgpError("'power' needs an unordered semigroup (kind: sgp)")
    print(serialize_document(power_ordered_semigroup(structure)), end="")
    return 0


def cmd_check(args) -> int:
    structure = _require_ordered(_read_structure(args.file), "check")
    name = args.bundle or args.theorem
    try:
        result = CHECKS[name](structure)
    except NotApplicable as exc:
        if args.json:
            _print_json({"id": name, "applicable": False, "reason": exc.reason})
        else:
            print(f"{name}: not applicable ({exc.reason})")
        return 0
    if args.json:
        _print_json(_bundle_json(result))
    else:
        for line in _bundle_text(result):
            print(line)
    return 0 if result.agree else 1


def _parse_sweep_ids(spec: str) -> tuple[str, ...]:
    """The checks a ``--sweep`` list names, each once, in registry order."""
    if spec == "all":
        return CHECK_IDS
    names = [name.strip() for name in spec.split(",") if name.strip()]
    for name in names:
        if name not in CHECKS:
            raise OrdsgpError(f"unknown check id: {name!r}")
    if not names:
        raise OrdsgpError(f"--sweep names no check: {spec!r}")
    return tuple(check_id for check_id in CHECK_IDS if check_id in names)


def cmd_enumerate(args) -> int:
    n = args.order
    if args.workers < 1:
        raise OrdsgpError(f"--workers must be at least 1, got {args.workers}")
    check_ids = _parse_sweep_ids(args.sweep) if args.sweep is not None else ()
    # before any output: it rejects a bad order or resume token
    start = resume_position(n, args.resume) if args.resume else 0
    print(f"semigroups: {len(all_semigroup_tables(n))}")

    report = sweep_order(n, args.workers, check_ids, start)
    print(f"ordered-semigroups: {report.total}")
    print(f"sequence-hash: {report.sequence_hash}")
    print(f"sorted-hash: {report.sorted_hash}")
    if report.total:
        print(f"resume-token: {resume_token(n, start + report.total - 1)}")

    if args.sweep is not None:
        print(f"checks: {len(check_ids)} per structure")
        if report.disagreements:
            for item in report.disagreements:
                for line in _bundle_text(item.result):
                    print(line)
                print(item.document, end="")
            return 1
        print("all checks agree")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordsgp",
        description="Analyze finite ordered semigroups: validation, classification, "
        "Green's relations, semilattice decompositions, power constructions, "
        "and exhaustive theorem checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a .osg/.sgp document")
    p.add_argument("file")
    p.add_argument("--close-order", action="store_true", help="take the transitive closure before validating")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="evaluate every predicate and bundle")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--close-order", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("green", help="print a Green relation partition")
    p.add_argument("file")
    p.add_argument("--kind", required=True, choices=["L", "R", "J", "H"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_green)

    p = sub.add_parser("decompose", help="complete semilattice decomposition")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("power", help="build the power structure of a .sgp semigroup")
    p.add_argument("file")
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("check", help="evaluate one bundle or structure theorem")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--bundle", choices=list(BUNDLE_ORDER))
    group.add_argument("--theorem", choices=list(THEOREM_ORDER))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("enumerate", help="enumerate all structures of one order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--sweep", metavar="all|ID,ID,...", help="run checks over every structure")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--resume", metavar="TOKEN")
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OrdsgpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
