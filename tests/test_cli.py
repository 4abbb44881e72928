"""Command-line surface: commands, reports, exit codes."""

import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ordsgp
from ordsgp import (
    enumeration,
    parse_document,
    resume_token,
    serialize_document,
    validate_structure,
)
from ordsgp import sweep as sweep_module
from ordsgp.cli import main
from ordsgp.report import ConditionResult, make_bundle

from conftest import make_sl2, make_z2

SL2_DOC = serialize_document(make_sl2())
Z2_DOC = serialize_document(make_z2())
BAD_DOC = "kind: osg\nelements: 2\ntable:\n0 1\n0 0\norder:\n"


@pytest.fixture
def sl2_file(tmp_path):
    path = tmp_path / "sl2.osg"
    path.write_text(SL2_DOC)
    return str(path)


@pytest.fixture
def z2_file(tmp_path):
    path = tmp_path / "z2.sgp"
    path.write_text(Z2_DOC)
    return str(path)


def test_validate_ok(sl2_file, capsys):
    assert main(["validate", sl2_file]) == 0
    assert "valid ordered semigroup" in capsys.readouterr().out


def test_validate_bad_input(tmp_path, capsys):
    path = tmp_path / "bad.osg"
    path.write_text(BAD_DOC)
    assert main(["validate", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_validate_missing_file(capsys):
    assert main(["validate", "/no/such/file.osg"]) == 2


def test_validate_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "bad.osg"
    path.write_bytes(b"kind: osg\nelements: 1\ntable:\n0\norder:\n\xff\n")
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot read {path}:"), lines


def test_close_order_flag(tmp_path):
    doc = (
        "kind: osg\nelements: 3\ntable:\n0 0 0\n0 1 1\n0 1 2\n"
        "order:\n0 1\n1 2\n"
    )
    path = tmp_path / "chain.osg"
    path.write_text(doc)
    assert main(["validate", str(path)]) == 2
    assert main(["validate", "--close-order", str(path)]) == 0


def test_classify_text(sl2_file, capsys):
    assert main(["classify", sl2_file]) == 0
    out = capsys.readouterr().out
    assert "clifford: yes" in out
    assert "group_like: no" in out
    assert "CR-EQ5: agree" in out


def test_classify_json(sl2_file, capsys):
    assert main(["classify", "--json", sl2_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {
        "structure",
        "regular",
        "predicates",
        "bundles",
        "witnesses",
    }
    assert data["predicates"]["clifford"]["holds"] is True
    assert data["predicates"]["group_like"]["counterexample"] == [1, 0]
    assert data["structure"]["order"] == [[0, 1]]


def test_classify_json_deterministic(sl2_file, capsys):
    main(["classify", "--json", sl2_file])
    first = capsys.readouterr().out
    main(["classify", "--json", sl2_file])
    second = capsys.readouterr().out
    assert first == second


def test_green(sl2_file, capsys):
    assert main(["green", sl2_file, "--kind", "L"]) == 0
    assert "L-classes: {0} | {1}" in capsys.readouterr().out
    assert main(["green", sl2_file, "--kind", "H", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["classes"] == [[0], [1]]


def test_green_flags_non_regular(tmp_path, capsys):
    doc = "kind: osg\nelements: 2\ntable:\n0 0\n0 0\norder:\n"
    path = tmp_path / "n2.osg"
    path.write_text(doc)
    assert main(["green", str(path), "--kind", "J"]) == 0
    assert "not regular" in capsys.readouterr().out


def test_decompose(sl2_file, capsys):
    assert main(["decompose", sl2_file]) == 0
    out = capsys.readouterr().out
    assert "quotient semilattice: 2 classes" in out
    assert main(["decompose", sl2_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["classes"] == [[0], [1]]
    assert all(c["holds"] for c in data["conditions"])


def test_power_pipes_canonical_document(z2_file, capsys):
    assert main(["power", z2_file]) == 0
    out = capsys.readouterr().out
    power = parse_document(out)
    assert power.size == 3
    assert serialize_document(power) == out


def test_power_rejects_osg(sl2_file, capsys):
    assert main(["power", sl2_file]) == 2


def test_check_bundle(sl2_file, capsys):
    assert main(["check", sl2_file, "--bundle", "CL-EQ"]) == 0
    assert "agree" in capsys.readouterr().out
    assert main(["check", sl2_file, "--bundle", "CR-EQ5", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["agree"] is True and data["id"] == "CR-EQ5"


def test_check_not_applicable(tmp_path, capsys):
    doc = "kind: osg\nelements: 2\ntable:\n0 0\n0 0\norder:\n"
    path = tmp_path / "n2.osg"
    path.write_text(doc)
    assert main(["check", str(path), "--bundle", "CL-EQ"]) == 0
    assert "not applicable" in capsys.readouterr().out


N2_DOC = "kind: osg\nelements: 2\ntable:\n0 0\n0 0\norder:\n"


@pytest.fixture
def n2_file(tmp_path):
    path = tmp_path / "n2.osg"
    path.write_text(N2_DOC)
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [["classify"], ["green", "--kind", "J"], ["decompose"], ["check", "--bundle", "CR-EQ5"]],
    ids=lambda argv: argv[0],
)
def test_ordered_commands_refuse_an_unordered_semigroup(z2_file, capsys, argv):
    assert main([argv[0], z2_file, *argv[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: '{argv[0]}' needs an ordered semigroup (kind: osg)\n"


def test_check_json_not_applicable(n2_file, capsys):
    assert main(["check", n2_file, "--json", "--bundle", "CL-EQ"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "applicable": False,
        "id": "CL-EQ",
        "reason": "requires a regular structure",
    }


def test_classify_text_on_a_non_regular_structure(n2_file, capsys):
    assert main(["classify", n2_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "note: structure is not regular" in lines
    assert "left_group_like: not applicable (requires a regular structure)" in lines
    assert "GL-HREL: not applicable (requires a regular structure)" in lines


def test_check_theorem(sl2_file, capsys):
    assert main(["check", sl2_file, "--theorem", "CL-DECOMP"]) == 0
    out = capsys.readouterr().out
    assert "CL-DECOMP: agree" in out


@pytest.mark.parametrize(
    "table, pairs, code",
    [
        # left-zero band: the generated congruence has one class
        ([[i] * 10 for i in range(10)], [], 0),
        # ten-chain min-semilattice: the generated congruence has ten classes
        (
            [[min(i, j) for j in range(10)] for i in range(10)],
            [(i, j) for i in range(10) for j in range(i + 1, 10)],
            2,
        ),
    ],
)
def test_partitions_guard_bounds_generated_classes(tmp_path, capsys, table, pairs, code):
    path = tmp_path / "ten.osg"
    path.write_text(serialize_document(validate_structure(10, table, pairs)))
    assert main(["check", str(path), "--theorem", "CR-CSDECOMP"]) == code
    captured = capsys.readouterr()
    if code == 0:
        assert "CR-CSDECOMP: agree" in captured.out
    else:
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1, captured
        assert lines[0].startswith("error: size 10 exceeds the 'partitions' guard (9)"), lines


def test_enumerate_with_sweep(capsys):
    assert main(["enumerate", "--order", "2", "--sweep", "all"]) == 0
    out = capsys.readouterr().out
    assert "semigroups: 8" in out
    assert "ordered-semigroups: 20" in out
    assert "all checks agree" in out
    assert "sequence-hash:" in out


def test_enumerate_sweep_subset(capsys):
    assert main(["enumerate", "--order", "2", "--sweep", "CR-EQ5,CL-DECOMP"]) == 0
    out = capsys.readouterr().out
    assert "checks: 2 per structure" in out


def test_enumerate_sweep_repeated_id(monkeypatch, capsys):
    calls = []
    check = sweep_module.CHECKS["CR-EQ5"]

    def counting_check(s):
        calls.append("CR-EQ5")
        return check(s)

    monkeypatch.setitem(sweep_module.CHECKS, "CR-EQ5", counting_check)
    assert main(["enumerate", "--order", "2", "--sweep", "CR-EQ5,CR-EQ5,CR-EQ5"]) == 0
    assert "checks: 1 per structure" in capsys.readouterr().out
    assert calls == ["CR-EQ5"] * 20


def test_enumerate_workers_match_sorted_hash(capsys):
    assert main(["enumerate", "--order", "2"]) == 0
    single = capsys.readouterr().out
    assert main(["enumerate", "--order", "2", "--workers", "2"]) == 0
    double = capsys.readouterr().out

    def grab(out, key):
        return next(l for l in out.splitlines() if l.startswith(key))

    for key in ("semigroups", "ordered-semigroups", "sequence-hash", "sorted-hash"):
        assert grab(single, key + ":") == grab(double, key + ":")
    assert single == double


def test_enumerate_resume(capsys):
    assert main(["enumerate", "--order", "2"]) == 0
    out = capsys.readouterr().out
    token = next(
        l.split(": ", 1)[1] for l in out.splitlines() if l.startswith("resume-token")
    )
    # resuming from the final token yields an empty remainder
    assert main(["enumerate", "--order", "2", "--resume", token]) == 0
    out = capsys.readouterr().out
    assert "ordered-semigroups: 0" in out
    # a resumed run reports the token of the stream's last position
    assert main(["enumerate", "--order", "2", "--resume", "o2:0001:2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "ordered-semigroups: 14"
    assert out[-1] == f"resume-token: {token}"


def test_enumerate_unknown_check_id(capsys):
    assert main(["enumerate", "--order", "2", "--sweep", "WAT"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--order", "0"],
        ["enumerate", "--order", "-1"],
        ["enumerate", "--order", "2", "--resume", "garbage"],
        ["enumerate", "--order", "2", "--resume", "o2:0000:99"],
        ["enumerate", "--order", "2", "--resume", "o2:1000:0"],
        ["enumerate", "--order", "2", "--workers", "0"],
        ["enumerate", "--order", "2", "--workers", "-5"],
        ["enumerate", "--order", "2", "--sweep", ","],
        ["enumerate", "--order", "2", "--sweep", ""],
    ],
)
def test_enumerate_bad_input_exits_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines


@pytest.mark.parametrize("limits", ["semigroups=x", "semigroup=5", "foo", "ideals=3,semigroup=5"])
def test_malformed_limits_exit_2(monkeypatch, capsys, limits):
    # the last entry is the bad one: a non-integer value, a key naming no
    # guard, no "=", and a bad entry after a good one
    entry = limits.split(",")[-1]
    monkeypatch.setenv("ORDSGP_LIMITS", limits)
    assert main(["enumerate", "--order", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad ORDSGP_LIMITS entry: {entry!r}\n"


def test_enumerate_runs_table_search_once(monkeypatch, capsys):
    calls = []
    search = enumeration._lex_leader_tables

    def counting_search(n):
        calls.append(n)
        return search(n)

    monkeypatch.setattr(enumeration, "_TABLE_LISTS", {})
    monkeypatch.setattr(enumeration, "_lex_leader_tables", counting_search)
    assert main(["enumerate", "--order", "3"]) == 0
    assert calls == [3]
    assert "semigroups: 113" in capsys.readouterr().out


def test_serial_enumerate_starts_no_pool(monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("a serial run started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert main(["enumerate", "--order", "2", "--workers", "1", "--sweep", "all"]) == 0
    assert "all checks agree" in capsys.readouterr().out


def test_import_loads_no_hashing_or_pool_modules():
    # hashlib loads OpenSSL and multiprocessing its own machinery: a few MB of
    # RSS each, which only hashing callers and pooled sweeps need
    code = (
        "import sys, ordsgp, ordsgp.cli, ordsgp.sweep; "
        "print(sorted(m for m in ('hashlib', '_hashlib', 'multiprocessing') if m in sys.modules))"
    )
    src = str(Path(ordsgp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_enumerate_resume_with_workers(capsys):
    # every token at order 2, the last one included
    for p in range(20):
        argv = ["enumerate", "--order", "2", "--resume", resume_token(2, p)]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial
    assert "ordered-semigroups: 0\n" in serial
    assert "resume-token:" not in serial


def test_enumerate_prints_disagreement_detail(monkeypatch, capsys):
    fake = make_bundle(
        "CR-EQ5",
        (ConditionResult("first side", True), ConditionResult("second side", False, (0, 0))),
    )
    monkeypatch.setitem(sweep_module.CHECKS, "CR-EQ5", lambda s: fake)
    assert main(["enumerate", "--order", "1", "--sweep", "CR-EQ5"]) == 1
    out = capsys.readouterr().out
    assert "CR-EQ5: DISAGREE" in out
    assert "  [false] second side  counterexample (0, 0)" in out
