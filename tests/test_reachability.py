"""Every function and method of ``src/ordsgp`` is reached by a command, or
is listed in ``ALLOWLIST`` with the reason it stays.

Run as a script, this file traces the command line in a fresh interpreter:
it installs a ``sys.setprofile`` hook that records the code object of every
call, then imports ``ordsgp`` (so import-time calls count) and runs
``cli.main`` over ``commands()``:

- every command, with and without ``--json`` where it has one, on the 11
  ordered fixtures and the 4 unordered fixtures of ``conftest``; each
  command that needs the other kind of structure exits 2
- ``enumerate --order 1`` to ``3``; ``--sweep all`` at orders 1 and 2, a
  named ``--sweep`` list, and a ``--resume`` of the order-3 sweep near its
  end (the whole order-3 sweep takes seconds under the hook)
- ``--workers 2``, through ``conftest.install_serial_pool``, which runs the
  pool's tasks in the process so that the hook sees them
- the CLI's exit-2 cases: unreadable and invalid documents, bad
  ``enumerate`` arguments and a malformed ``ORDSGP_LIMITS``

It prints the exit code of each command and the calls it saw, as JSON:

    PYTHONPATH=src:tests python tests/test_reachability.py

The tests read that trace.  A function is named by its module and
qualified name, e.g. ``core.FiniteSemigroup.word`` or
``ideals._principal_masks.build`` for a nested one.  Dunders are exempt;
the constructors of ``errors.py`` are replaced by an ``ast`` check that
every exception class there is raised somewhere in ``src/``.  The
allowlist can only shrink: an entry that a command reaches, or that names
no function, fails too.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ordsgp"

# qualified name -> why it stays in src/ though no command reaches it
ALLOWLIST = {
    # names perfbench/rep.py imports: the benchmark's own entry points
    "classification.structure_theorem_check": "perfbench's traced sweep-n4 unit runs each theorem",
    "core.down_closure": "perfbench times it as core.down_closure_us",
    "enumeration.enumerate_compatible_orders": "perfbench's traced enumerate-n4 unit",
    "enumeration.enumerate_semigroups": "perfbench's power-n4 and traced enumerate-n4 units",
    "enumeration.sample_ordered_semigroups": "perfbench's sweep-n4 sample",
    "enumeration.transcript_hash": "perfbench's sweep-n4 and enumerate-n4 gates",
    "ideals.enumerate_ideals": "perfbench times it; idempotent_ideal_identities reads it",
    "power.power_correspondence_check": "perfbench's power-n4 workload; no command checks it yet",
    "sweep.sweep": "perfbench's sweep-n4 unit",
    # accessors the tests' definition-level oracles read
    "core.ElementSet.members": "the tests compare sets by their members",
    "core.FiniteSemigroup.name_of": "the power oracle names subsets by their members' names",
    "core.FiniteSemigroup.prod": "the tests' oracles state products one pair at a time",
    "core.FiniteSemigroup.word": "the tests' oracles state products of several factors",
    "core.OrderedSemigroup.le": "the tests' oracles state the order one pair at a time",
    # acceptance helpers, and the ideal oracle's ideal check
    "core.OrderedSemigroup.subset": "builds an ElementSet from members: group_component, tests",
    "core.set_product": "the acceptance test of setwise associativity",
    "ideals.EquivalenceRelation.refines": "the acceptance test that the least CSC is least",
    "ideals.is_ideal": "the ideal oracle's check of each subset",
    "ideals.principal_ideal": "the acceptance test of principal ideals as meets of ideals",
    "power.join": "universal_extension's joins",
    "power.join_all": "universal_extension's joins of images",
    "power.semigroup_morphism": "the acceptance test of the universal extension",
    "power.universal_extension": "the acceptance test of the universal extension",
    # paper statements that no command checks yet (ROADMAP item 10)
    "elements.group_component": "the group component G_e; no check states it yet",
    "ideals.idempotent_ideal_identities": "three ideal identities; no check states them yet",
    "ideals.idempotent_ideal_identities.identity": "nested in idempotent_ideal_identities",
    "power._sg_left_simple": "is_left_group's second half",
    "power._sg_regular": "is_left_group's first half",
    "power.is_completely_regular_semigroup": "power_correspondence_check's unordered side",
    "power.is_group": "power_correspondence_check's unordered side",
    "power.is_left_group": "power_correspondence_check's unordered side",
    # the tests' structure stream
    "enumeration.enumerate_ordered_semigroups": "the tests' stream of whole orders and ranges",
    # argument checks that only allowlisted functions call
    "core._elements": "subset's and semigroup_morphism's element check",
    "core._require_elements": "the element check of group_component, join, principal_ideal",
    "ideals._require_side": "the side check of is_ideal, enumerate_ideals, principal_ideal",
}


# ---------------------------------------------------------------------------
# the traced run, in a process of its own


def commands(files: dict[str, str], resume_near_end: str) -> list[tuple[list[str], int]]:
    """Every (argv, expected exit code) the trace runs but the malformed
    ``ORDSGP_LIMITS`` one; ``files`` maps each fixture's name, each bad
    document's name, "missing" and "not-utf8" to a path."""
    from ordsgp.classification import BUNDLE_ORDER, THEOREM_ORDER

    from conftest import ORDERED_FIXTURES, UNORDERED_FIXTURES

    found = []
    for name in ORDERED_FIXTURES:
        f = files[name]
        found += [
            (["validate", f], 0),
            (["validate", "--close-order", f], 0),
            (["classify", f], 0),
            (["classify", "--json", "--close-order", f], 0),
            (["decompose", f], 0),
            (["decompose", "--json", f], 0),
            (["power", f], 2),
        ]
        runs = [["green", f, "--kind", kind] for kind in "LRJH"]
        runs += [["check", f, "--bundle", check_id] for check_id in BUNDLE_ORDER]
        runs += [["check", f, "--theorem", check_id] for check_id in THEOREM_ORDER]
        found += [(argv, 0) for argv in runs] + [(argv + ["--json"], 0) for argv in runs]
    for name in UNORDERED_FIXTURES:
        g = files[name]
        found += [
            (["validate", g], 0),
            (["power", g], 0),
            (["classify", g], 2),
            (["green", g, "--kind", "L"], 2),
            (["decompose", g], 2),
            (["check", g, "--bundle", "CR-EQ5"], 2),
        ]
    for n in ("1", "2", "3"):
        found.append((["enumerate", "--order", n], 0))
    found += [
        (["enumerate", "--order", "1", "--sweep", "all"], 0),
        (["enumerate", "--order", "2", "--sweep", "all"], 0),
        (["enumerate", "--order", "2", "--sweep", "CL-EQ, CR-EQ5"], 0),
        (["enumerate", "--order", "2", "--resume", "o2:0001:2"], 0),
        (["enumerate", "--order", "3", "--sweep", "all", "--resume", resume_near_end], 0),
        (["enumerate", "--order", "2", "--workers", "2"], 0),
        (["enumerate", "--order", "2", "--sweep", "all", "--workers", "2"], 0),
    ]
    bad = [
        ["validate", files["missing"]],
        ["validate", files["not-utf8"]],
        ["enumerate", "--order", "0"],
        ["enumerate", "--order", "5"],
        ["enumerate", "--order", "2", "--resume", "garbage"],
        ["enumerate", "--order", "2", "--resume", "o2:0000:99"],
        ["enumerate", "--order", "2", "--resume", "o2:1000:0"],
        ["enumerate", "--order", "2", "--workers", "0"],
        ["enumerate", "--order", "2", "--sweep", ","],
        ["enumerate", "--order", "2", "--sweep", "WAT"],
    ]
    bad += [["validate", path] for name, path in files.items() if name.startswith("bad-")]
    return found + [(argv, 2) for argv in bad]


BAD_DOCUMENTS = {
    "bad-syntax": "kind: osg\nelements: two\n",
    "bad-associative": "kind: sgp\nelements: 2\ntable:\n1 0\n0 0\n",
    "bad-antisymmetric": "kind: osg\nelements: 2\ntable:\n0 0\n0 0\norder:\n0 1\n1 0\n",
    "bad-transitive": "kind: osg\nelements: 3\ntable:\n0 0 0\n0 0 0\n0 0 0\norder:\n0 1\n1 2\n",
    "bad-compatible": "kind: osg\nelements: 2\ntable:\n0 1\n1 0\norder:\n0 1\n",
}


def trace(workdir: Path) -> dict:
    """Run every command under a profile hook.  Returns each command with
    its expected and actual exit code, the max_workers of each stand-in
    pool, and the (file, first line, name) of every code object of
    ``src/ordsgp`` that was called."""
    import contextlib
    import io

    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(hook)
    try:
        from ordsgp import serialize_document
        from ordsgp.cli import main
        from ordsgp.enumeration import ordered_offsets, resume_token

        from conftest import ORDERED_FIXTURES, UNORDERED_FIXTURES, install_serial_pool

        files = {"missing": workdir / "missing.doc", "not-utf8": workdir / "not-utf8.doc"}
        files["not-utf8"].write_bytes(b"kind: sgp\nelements: 1\ntable:\n\xff\n")
        fixtures = {**ORDERED_FIXTURES, **UNORDERED_FIXTURES}
        texts = {name: serialize_document(build()) for name, build in fixtures.items()}
        texts.update(BAD_DOCUMENTS)
        for name, text in texts.items():
            files[name] = workdir / f"{name}.doc"
            files[name].write_text(text, encoding="utf-8")
        files = {name: str(path) for name, path in files.items()}

        pools = install_serial_pool(setattr)
        near_end = resume_token(3, ordered_offsets(3)[-1] - 40)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes = [(argv, code, main(argv)) for argv, code in commands(files, near_end)]
            os.environ["ORDSGP_LIMITS"] = "semigroups=x"  # no integer: exit 2
            codes.append((["enumerate", "--order", "2"], 2, main(["enumerate", "--order", "2"])))
    finally:
        sys.setprofile(None)
    calls = sorted(
        (Path(code.co_filename).name, code.co_firstlineno, code.co_name)
        for code in seen
        if Path(code.co_filename).resolve().parent == SRC
    )
    return {"codes": codes, "pools": pools["started"], "calls": calls}


# ---------------------------------------------------------------------------
# the tests


def functions() -> dict[str, tuple[str, int, str]]:
    """Every function and method of ``src/ordsgp`` but the dunders, by
    qualified name, e.g. ``ideals._principal_masks.build``: its file, the
    first line of its code object (its first decorator's, if it has one)
    and its name."""
    found = {}

    def walk(node, path: Path, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    found[name] = (path.name, first, child.name)
                walk(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, path.stem + ".")
    return found


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
    env.pop("ORDSGP_LIMITS", None)
    run = subprocess.run(
        [sys.executable, "-W", "error", __file__],
        cwd=tmp_path_factory.mktemp("reachability"),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    data = json.loads(run.stdout)
    data["calls"] = {tuple(call) for call in data["calls"]}
    return data


def unreached(traced) -> set[str]:
    return {name for name, key in functions().items() if key not in traced["calls"]}


def test_the_traced_commands_exit_as_expected(traced):
    """Each command exits as it should, so the trace covers what it names;
    the ``--workers 2`` runs went through the stand-in pool."""
    assert [(argv, got) for argv, expected, got in traced["codes"] if got != expected] == []
    assert traced["pools"] == [2, 2]


def test_every_function_is_reached_or_allowlisted(traced):
    assert sorted(unreached(traced) - ALLOWLIST.keys()) == []


def test_the_allowlist_names_only_unreached_functions(traced):
    """An entry that a command reaches, or that names no function, goes:
    the list only shrinks."""
    assert sorted(ALLOWLIST.keys() - unreached(traced)) == []


def raised_names(source: str) -> set[str]:
    """The names of the exceptions that ``raise`` statements raise, as in
    ``raise Name(...)``, ``raise Name`` or ``raise module.Name(...)``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                found.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                found.add(exc.attr)
    return found


def test_every_error_class_is_raised_in_src():
    """Every exception class of ``errors.py`` is raised somewhere in
    ``src/ordsgp``: the check that stands for tracing their constructors."""
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in SRC.glob("*.py"):
        raised |= raised_names(path.read_text(encoding="utf-8"))
    assert sorted(classes - raised) == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(trace(Path(tmp))))
