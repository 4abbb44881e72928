"""One repetition of a benchmark workload, run in a fresh interpreter.

    python3 perfbench/rep.py '<json config>'

``run.py`` starts one interpreter per repetition, so the process-wide
caches in ``ordsgp.enumeration`` start cold every time.  The repetition
sets its workload up, then runs whole units of work (a sweep round, an
``enumerate`` command, a power pass) until its time slice would be
exceeded, checks every unit's output against the expected values in its
config (taken from ``expected.json``) and prints one JSON line with what
it measured.

With ``"trace": true`` it replays the workload through the same public
``ordsgp`` functions with a span around each call, keeps the spans in
memory and writes them to ``spans_path`` (gzipped JSON lines) at the end.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import gzip  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
POWER_PROPERTIES = ("t_simple", "left_group_like", "completely_regular")
MAX_FAILURE_NOTES = 20


class SetupError(Exception):
    """The program under test cannot be found or imported."""


def import_ordsgp():
    """Import the checkout's own ``ordsgp`` package, never an installed one."""
    sys.path.insert(0, str(SRC))
    try:
        import ordsgp
    except ImportError as exc:
        raise SetupError(f"cannot import ordsgp from {SRC}: {exc}") from exc
    if not Path(ordsgp.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"ordsgp was imported from {ordsgp.__file__}, not from {SRC}")
    return ordsgp


def warm_caches() -> list[str]:
    """Names of the process-wide enumeration caches that already hold entries."""
    from ordsgp import enumeration

    warm = []
    for name in ("all_posets", "_compatible_orders_flat"):
        if getattr(enumeration, name).cache_info().currsize:
            warm.append(name)
    if enumeration._TABLE_LISTS:
        warm.append("_TABLE_LISTS")
    return warm


def bell(n: int) -> int:
    """Number of partitions of an n-element set (Bell triangle)."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def leq_pairs(leq) -> list[tuple[int, int]]:
    n = len(leq)
    return [(a, b) for a in range(n) for b in range(n) if a != b and leq[a][b]]


class Tracer:
    """Spans and ratio counters kept in memory; written out once at the end.

    A span is ``[name index, parent span index or -1, start ns, end ns]``.
    Every call made for one item (structure or source semigroup) is a
    descendant of that item's ``item`` span, which identifies the item.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self.ratios: dict[str, list[int]] = {}

    def open(self, name: str, parent: int = -1) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.spans.append([idx, parent, time.perf_counter_ns(), 0])
        return len(self.spans) - 1

    def close(self, span: int) -> None:
        self.spans[span][3] = time.perf_counter_ns()

    def call(self, name: str, parent: int, fn, *args):
        span = self.open(name, parent)
        try:
            return fn(*args)
        finally:
            self.close(span)

    def ratio(self, name: str, num: int, den: int) -> None:
        acc = self.ratios.setdefault(name, [0, 0])
        acc[0] += num
        acc[1] += den

    def summary(self) -> dict:
        """Per span name: [calls, total ns, ns covered by direct children]."""
        totals = [[0, 0, 0] for _ in self.names]
        for name, parent, start, end in self.spans:
            entry = totals[name]
            entry[0] += 1
            entry[1] += end - start
            if parent >= 0:
                totals[self.spans[parent][0]][2] += end - start
        return {name: totals[i] for i, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps({"names": self.names}) + "\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                out.write(f"[{i},{parent},{name},{start},{end}]\n")


class Outcome:
    """Items attempted and failed across the units of one repetition."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, attempted: int, failed: int, notes=()) -> None:
        self.attempted += attempted
        self.failed += failed
        for note in notes:
            if len(self.notes) < MAX_FAILURE_NOTES:
                self.notes.append(note)


# ---------------------------------------------------------------------------
# sweep-n4: a fixed-seed sample swept with every bundle and theorem


def setup_sweep(cfg, tracer):
    from ordsgp import (
        BUNDLE_ORDER,
        THEOREM_ORDER,
        Side,
        complete_semilattice_congruences,
        down_closure,
        enumerate_compatible_orders,
        enumerate_ideals,
        equivalence_bundle,
        green_relation,
        n_relation,
        serialize_document,
        structure_theorem_check,
        transcript_hash,
        validate_semigroup,
        validate_structure,
    )
    from ordsgp.elements import is_regular_structure
    from ordsgp.enumeration import all_posets, all_semigroup_tables, sample_ordered_semigroups
    from ordsgp.errors import NotApplicable
    from ordsgp.sweep import sweep

    n, count, seed = cfg["order"], cfg["count"], cfg["sample_seed"]
    expected_hash = cfg["expected"]["sorted_hash"]

    def gate(outcome, total, disagreeing, digest):
        notes = []
        if total != count:
            notes.append(f"sweep checked {total} structures, expected {count}")
        if digest != expected_hash:
            notes.append(f"sorted hash {digest} != {expected_hash}")
        if disagreeing:
            notes.append(f"{len(disagreeing)} structures disagree")
        failed = count if (total != count or digest != expected_hash) else len(disagreeing)
        outcome.add(count, failed, notes)

    if tracer is None:
        # builds the table list and the drawn tables' compatible orders
        for _ in sample_ordered_semigroups(n, count, seed):
            pass

        def unit(outcome, intervals):
            stamps = []

            def stamped(structures):
                for s in structures:
                    stamps.append(time.perf_counter_ns())
                    yield s

            report = sweep(stamped(sample_ordered_semigroups(n, count, seed)))
            stamps.append(time.perf_counter_ns())
            digest = transcript_hash(report.transcripts, sort=True)
            intervals.extend((b - a) / 1e6 for a, b in zip(stamps, stamps[1:]))
            disagreeing = {d.document for d in report.disagreements}
            gate(outcome, report.total, disagreeing, digest)
            return report.total

        return unit

    tables = tracer.call("enumeration.table_dfs", -1, all_semigroup_tables, n)
    tracer.ratio("enumeration.tables", len(tables), 1)
    for flat in tables:
        f = validate_semigroup(n, [flat[i * n : (i + 1) * n] for i in range(n)])
        orders = tracer.call("enumeration.orders", -1, enumerate_compatible_orders, f)
        tracer.ratio("enumeration.orders_yield", len(orders), len(all_posets(n)))
    scanned_partitions = bell(n)

    def primitives(s, item):
        def fresh():
            return tracer.call("core.validate", item, validate_structure, n, s.table, s.order_pairs())

        cscs = tracer.call("congruence.csc", item, complete_semilattice_congruences, fresh())
        tracer.ratio("congruence.csc_yield", len(cscs), scanned_partitions)
        copy = fresh()
        for side in Side:
            ideals = tracer.call("ideals.enumerate_ideals", item, enumerate_ideals, copy, side)
            tracer.ratio("ideals.ideal_yield", len(ideals), 1 << n)
        tracer.call("ideals.n_relation", item, n_relation, fresh())
        copy = fresh()
        for kind in "LRJH":
            tracer.call("ideals.green_relation", item, green_relation, copy, kind)
        tracer.call("elements.is_regular", item, is_regular_structure, fresh())
        copy = fresh()
        for a in range(n):
            tracer.call("core.down_closure", item, down_closure, copy, copy.subset([a]))

    def traced_unit(outcome, intervals):
        docs = []
        disagreeing = set()
        for s in sample_ordered_semigroups(n, count, seed):
            item = tracer.open("item")
            doc = tracer.call("fileformat.serialize", item, serialize_document, s)
            docs.append(doc)
            check = tracer.open("sweep.check_structure", item)
            # the order of sweep.check_structure: these calls share s._cache
            for bundle_id in BUNDLE_ORDER:
                name = f"classification.{bundle_id}"
                try:
                    result = tracer.call(name, check, equivalence_bundle, s, bundle_id)
                except NotApplicable:
                    tracer.ratio(f"{name}.applicable", 0, 1)
                    continue
                tracer.ratio(f"{name}.applicable", 1, 1)
                if not result.agree:
                    disagreeing.add(doc)
            for theorem_id in THEOREM_ORDER:
                name = f"congruence.{theorem_id}"
                if not tracer.call(name, check, structure_theorem_check, s, theorem_id).agree:
                    disagreeing.add(doc)
            tracer.close(check)
            primitives(s, item)
            tracer.close(item)
        digest = tracer.call("enumeration.transcript_hash", -1, transcript_hash, docs, True)
        gate(outcome, len(docs), disagreeing, digest)
        return len(docs)

    return traced_unit


# ---------------------------------------------------------------------------
# enumerate-n4: the user's `ordsgp enumerate --order 4` command


def setup_enumerate(cfg, tracer):
    n = cfg["order"]
    expected = cfg["expected"]

    def gate(outcome, semigroups, ordered, seq_hash, sorted_hash, code=0):
        got = {
            "exit_code": code,
            "semigroups": semigroups,
            "ordered": ordered,
            "sequence_hash": seq_hash,
            "sorted_hash": sorted_hash,
        }
        notes = [f"{k}: {got[k]} != {expected[k]}" for k in got if got[k] != expected[k]]
        outcome.add(expected["ordered"], expected["ordered"] if notes else 0, notes)

    if tracer is None:
        from ordsgp.cli import main

        def unit(outcome, intervals):
            out = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = main(["enumerate", "--order", str(n)])
            wall = time.perf_counter() - start
            fields = dict(
                line.split(": ", 1) for line in out.getvalue().splitlines() if ": " in line
            )
            ordered = int(fields.get("ordered-semigroups", -1))
            # the command reports no per-item completion: one mean per run
            intervals.append(wall * 1e3 / max(ordered, 1))
            gate(
                outcome,
                int(fields.get("semigroups", -1)),
                ordered,
                fields.get("sequence-hash"),
                fields.get("sorted-hash"),
                code,
            )
            return max(ordered, 0)

        return unit

    from ordsgp import (
        enumerate_compatible_orders,
        enumerate_semigroups,
        serialize_document,
        transcript_hash,
        validate_structure,
    )
    from ordsgp.enumeration import all_posets

    def count_tables():
        return sum(1 for _ in enumerate_semigroups(n))

    def traced_unit(outcome, intervals):
        # the command's own pipeline: a counting pass, then the stream
        semigroups = tracer.call("enumeration.table_dfs", -1, count_tables)
        tracer.ratio("enumeration.tables", semigroups, 1)
        docs = []
        for f in enumerate_semigroups(n):
            item = tracer.open("item")
            orders = tracer.call("enumeration.orders", item, enumerate_compatible_orders, f)
            tracer.ratio("enumeration.orders_yield", len(orders), len(all_posets(n)))
            for leq in orders:
                s = tracer.call("core.validate", item, validate_structure, n, f.table, leq_pairs(leq))
                docs.append(tracer.call("fileformat.serialize", item, serialize_document, s))
            tracer.close(item)
        seq_hash = tracer.call("enumeration.transcript_hash", -1, transcript_hash, docs)
        sorted_hash = tracer.call("enumeration.transcript_hash", -1, transcript_hash, docs, True)
        gate(outcome, semigroups, len(docs), seq_hash, sorted_hash)
        return len(docs)

    return traced_unit


# ---------------------------------------------------------------------------
# power-n4: the power correspondences on every semigroup of order 4


def setup_power(cfg, tracer):
    from ordsgp import enumerate_semigroups, power_correspondence_check, power_ordered_semigroup

    n = cfg["order"]
    expected = cfg["expected"]
    if tracer is None:
        semigroups = list(enumerate_semigroups(n))
    else:
        semigroups = tracer.call("enumeration.table_dfs", -1, lambda: list(enumerate_semigroups(n)))
        tracer.ratio("enumeration.tables", len(semigroups), 1)

    def unit(outcome, intervals):
        results = 0
        disagreeing = 0
        stamp = time.perf_counter_ns()
        for f in semigroups:
            item = -1
            if tracer is not None:
                item = tracer.open("item")
                tracer.call("power.construct", item, power_ordered_semigroup, f)
            agree = True
            for prop in POWER_PROPERTIES:
                if tracer is None:
                    result = power_correspondence_check(f, prop)
                else:
                    result = tracer.call(f"power.{prop}", item, power_correspondence_check, f, prop)
                results += 1
                agree = agree and result.agree
            disagreeing += not agree
            if tracer is not None:
                tracer.close(item)
            now = time.perf_counter_ns()
            intervals.append((now - stamp) / 1e6)
            stamp = now
        notes = []
        if len(semigroups) != expected["semigroups"]:
            notes.append(f"{len(semigroups)} semigroups, expected {expected['semigroups']}")
        if results != expected["results"]:
            notes.append(f"{results} results, expected {expected['results']}")
        failed = len(semigroups) if notes else disagreeing
        if disagreeing:
            notes.append(f"{disagreeing} semigroups disagree")
        outcome.add(len(semigroups), failed, notes)
        return len(semigroups)

    return unit


SETUPS = {"sweep-n4": setup_sweep, "enumerate-n4": setup_enumerate, "power-n4": setup_power}
# a unit of these fills the enumeration caches the next unit must find cold
ONE_UNIT_PER_PROCESS = {"enumerate-n4"}


def run(cfg: dict) -> dict:
    """Set up, run units until the slice would be exceeded, and report."""
    import_ordsgp()
    warm = warm_caches()
    tracer = Tracer() if cfg["trace"] else None
    unit = SETUPS[cfg["workload"]](cfg, tracer)
    record = {"setup_s": time.perf_counter() - START, "warm_caches": warm}
    if cfg["setup_only"]:
        return record
    outcome = Outcome()
    if warm:
        outcome.add(1, 1, [f"repetition started with warm caches: {', '.join(warm)}"])
    intervals: list[list[float]] = []
    unit_walls: list[float] = []
    items = 0
    more = cfg["workload"] not in ONE_UNIT_PER_PROCESS
    while not unit_walls or more and sum(unit_walls) * (1 + 1 / len(unit_walls)) <= cfg["slice_s"]:
        intervals.append([])
        start = time.perf_counter()
        items += unit(outcome, intervals[-1])
        unit_walls.append(time.perf_counter() - start)
    record.update(
        items=items,
        wall_s=sum(unit_walls),
        unit_wall_s=unit_walls,
        intervals_ms=intervals,
        attempted=outcome.attempted,
        failed=outcome.failed,
        failures=outcome.notes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        tracer.write(Path(cfg["spans_path"]))
        record.update(spans=tracer.summary(), ratios=tracer.ratios)
    return record


def main(argv: list[str]) -> int:
    try:
        record = run(json.loads(argv[1]))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
