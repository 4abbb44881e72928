"""Command-line surface: commands, reports, exit codes."""

import json

import pytest

from ordsgp import parse_document, serialize_document
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
        "decomposition",
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


def test_check_theorem(sl2_file, capsys):
    assert main(["check", sl2_file, "--theorem", "CL-DECOMP"]) == 0
    out = capsys.readouterr().out
    assert "CL-DECOMP: agree" in out


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


def test_enumerate_workers_match_sorted_hash(capsys):
    assert main(["enumerate", "--order", "2"]) == 0
    single = capsys.readouterr().out
    assert main(["enumerate", "--order", "2", "--workers", "2"]) == 0
    double = capsys.readouterr().out

    def grab(out, key):
        return next(l for l in out.splitlines() if l.startswith(key))

    assert grab(single, "sorted-hash") == grab(double, "sorted-hash")


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
    ],
)
def test_enumerate_bad_input_exits_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines


def test_enumerate_refuses_workers_with_resume(capsys):
    argv = ["enumerate", "--order", "2", "--workers", "2", "--resume", "o2:0000:0"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--workers" in err and "--resume" in err


def test_enumerate_prints_disagreement_detail(monkeypatch, capsys):
    fake = make_bundle(
        "CR-EQ5",
        (ConditionResult("first side", True), ConditionResult("second side", False, (0, 0))),
    )
    monkeypatch.setattr(sweep_module, "equivalence_bundle", lambda s, bundle_id: fake)
    assert main(["enumerate", "--order", "1", "--sweep", "CR-EQ5"]) == 1
    out = capsys.readouterr().out
    assert "CR-EQ5: DISAGREE" in out
    assert "  [false] second side  counterexample (0, 0)" in out
