"""Golden outputs: SHA-256 digests of every report over all structures of
order <= 3, and of the enumeration sequence itself.

Each digest pins the full JSON (or repr) of one report family, so any
change to a verdict, a least witness, a counterexample or a condition
label shows up here.  A refactor of the scans must leave all five
unchanged.  The ``enumerate`` lines (orders 1 to 4) and the semigroup
transcript pin the order in which structures are produced, so a change to
the table search, the compatible-order filter or resume handling that
reorders, drops or repeats a structure shows up here as well.
"""

import hashlib
import json
from itertools import product

import pytest

from ordsgp import (
    THEOREM_ORDER,
    classify,
    complete_semilattice_congruences,
    decompose,
    enumerate_ordered_semigroups,
    enumerate_semigroups,
    idempotent_ideal_identities,
    power_correspondence_check,
    serialize_document,
    structure_theorem_check,
    transcript_hash,
)
from ordsgp.cli import _bundle_json, _classification_json, main
from ordsgp.errors import NotIdempotent, NotRegular

from conftest import ORDERED_FIXTURES

CLASSIFY_SHA = "8ccff0087ac342b64f81e4b28ff3175c5a5067338eb02f2f6f7e9f7754f9e654"
THEOREMS_SHA = "59fc5d1f0151f3d1464b331d4abd9fe55013c90b72f2332b67a093ca1d8594d5"
POWER_SHA = "067ca4a62188bc6cfd0d2b0590f73ea4be2fbab5c0bb514d90836cd4aaac28c1"
DECOMPOSE_SHA = "af0b45b9a3ce298c5e0ed4756b036444b934b93013d9cbb44d8c17ac173cfa79"
IDEAL_IDENTITIES_SHA = "f24ff722d0ef37e89588a118b8d4d8b40a59ae4b255e3d8e020b15224ca80ee3"

SEMIGROUPS_SHA = "d83dbcdd3b7db1dc0f364dc2e4d0ddf568176d94425382f9098833e4ddb0b9fe"

ENUMERATE_LINES = {
    1: (
        "semigroups: 1",
        "ordered-semigroups: 1",
        "sequence-hash: 61e1b7a4cf0dfb12d1fcff92f9b336ff243b805f287bc2a4cbbfec211479c74d",
        "sorted-hash: 61e1b7a4cf0dfb12d1fcff92f9b336ff243b805f287bc2a4cbbfec211479c74d",
        "resume-token: o1:0:0",
    ),
    2: (
        "semigroups: 8",
        "ordered-semigroups: 20",
        "sequence-hash: ab36609a9f0c07796898273f3d84d999a42c5b6ed6812d9bef216e0a881c519a",
        "sorted-hash: ab36609a9f0c07796898273f3d84d999a42c5b6ed6812d9bef216e0a881c519a",
        "resume-token: o2:1111:2",
    ),
    3: (
        "semigroups: 113",
        "ordered-semigroups: 971",
        "sequence-hash: d45e27e5da05ca268faf78605e9d830449eb104e5986d4a401e90a4006499b52",
        "sorted-hash: 7c97df2c26828467ce77e2794bcdd3be722aea82962d50914a99d242745dfddb",
        "resume-token: o3:222222222:18",
    ),
    4: (
        "semigroups: 3492",
        "ordered-semigroups: 107688",
        "sequence-hash: e8201566e1c7b07683ebd7e58ace77600846907dc8a7b79d252a5a88b1ed9d76",
        "sorted-hash: 46c5c8b5f96bb11b0d6228440cb5c2956ad87869d96217c7e23b4fa3c4e5542b",
        "resume-token: o4:3333333333333333:218",
    ),
}

# SHA-256 of the output of `decompose FILE` and of `decompose --json FILE`
DECOMPOSE_CLI_SHA = {
    "SL2": (
        "114f27d9bd0f2f5a413e59ed626e894bda8ad0d19fd31f4a599b8ee6628afdf8",
        "ba16c7448463db7aaf5c8c5907af2d2f379e06a620d3db911bc3cbc29f174dd0",
    ),
    "LZ2": (
        "03ae1929025eac6e1885196e220b00ccc08b6b3af634291a41c8d211efdacef8",
        "10833dffd04bef285b4126ee19a53bee59ae7ae2cf0fe70721c2f40a40541ade",
    ),
}

POWER_PROPERTIES = ("t_simple", "left_group_like", "completely_regular")


def _ordered():
    for n in (1, 2, 3):
        yield from enumerate_ordered_semigroups(n)


def _digest(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode("utf-8"))
    return h.hexdigest()


def test_classify_json_golden():
    assert _digest(
        json.dumps(_classification_json(classify(s)), indent=2, sort_keys=True)
        for s in _ordered()
    ) == CLASSIFY_SHA


def test_structure_theorems_golden():
    assert _digest(
        json.dumps(_bundle_json(structure_theorem_check(s, t)), sort_keys=True)
        for s in _ordered()
        for t in THEOREM_ORDER
    ) == THEOREMS_SHA


def test_power_correspondence_golden():
    assert _digest(
        json.dumps(_bundle_json(power_correspondence_check(f, p)), sort_keys=True)
        for n in (1, 2, 3)
        for f in enumerate_semigroups(n)
        for p in POWER_PROPERTIES
    ) == POWER_SHA


def test_decompose_golden():
    # every complete semilattice congruence: quotient, order, four conditions
    def reprs():
        for s in _ordered():
            for rho in complete_semilattice_congruences(s):
                d = decompose(s, rho)
                yield repr(
                    (
                        rho.class_ids,
                        d.quotient_table,
                        d.quotient_order,
                        d.condition_verdicts,
                    )
                )

    assert _digest(reprs()) == DECOMPOSE_SHA


@pytest.mark.parametrize("name", sorted(DECOMPOSE_CLI_SHA))
def test_decompose_cli_golden(name, tmp_path, capsys):
    path = tmp_path / f"{name}.osg"
    path.write_text(serialize_document(ORDERED_FIXTURES[name]()))
    digests = []
    for extra in ([], ["--json"]):
        assert main(["decompose", str(path), *extra]) == 0
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert tuple(digests) == DECOMPOSE_CLI_SHA[name]


def test_ideal_identities_golden():
    # every (e, f): the claim bundle, or the type of the error it raises
    def reprs():
        for s in _ordered():
            for e, f in product(range(s.size), repeat=2):
                try:
                    r = idempotent_ideal_identities(s, e, f)
                except (NotIdempotent, NotRegular) as exc:
                    yield type(exc).__name__
                else:
                    yield repr((r.bundle_id, r.conditions, r.agree))

    assert _digest(reprs()) == IDEAL_IDENTITIES_SHA


@pytest.mark.parametrize("n", sorted(ENUMERATE_LINES))
def test_enumerate_output_golden(n, capsys):
    assert main(["enumerate", "--order", str(n)]) == 0
    assert tuple(capsys.readouterr().out.splitlines()) == ENUMERATE_LINES[n]


@pytest.mark.parametrize("workers", [2, 3])
def test_enumerate_workers_golden(workers, capsys):
    # a parallel run prints the serial lines, resume token included
    assert main(["enumerate", "--order", "3", "--workers", str(workers)]) == 0
    assert tuple(capsys.readouterr().out.splitlines()) == ENUMERATE_LINES[3]


def test_semigroup_transcript_golden():
    docs = [serialize_document(f) for n in (1, 2, 3) for f in enumerate_semigroups(n)]
    assert len(docs) == 122
    assert transcript_hash(docs) == SEMIGROUPS_SHA
