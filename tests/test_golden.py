"""Golden outputs: SHA-256 digests of every report over all structures of
order <= 3, and of the enumeration sequence itself.

Each digest pins the full JSON (or repr) of one report family, so any
change to a verdict, a least witness, a counterexample or a condition
label shows up here.  So does the ideal list of every side, and the
printed output of ``decompose`` and ``green`` on every fixture.  A
refactor of the scans must leave every digest unchanged.  The ``enumerate`` lines (orders 1 to 4) and the semigroup
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
    Side,
    classify,
    complete_semilattice_congruences,
    decompose,
    enumerate_ideals,
    enumerate_ordered_semigroups,
    enumerate_semigroups,
    idempotent_ideal_identities,
    power_correspondence_check,
    serialize_document,
    structure_theorem_check,
    transcript_hash,
)
from ordsgp.cli import _bundle_json, _classification_json, main
from ordsgp.core import bits
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
    "B2": (
        "481de251a6f36424bcd366e1ed4980853c5f23b3acab4800752964b278486825",
        "c015dd1de9351115d25b0a49a4c3dded5fb9860ab78a288badd7086358131c1e",
    ),
    "CH3": (
        "3edab86aef3dadd25c366844fd9124bc7541f407bc56199461e0b426dea28821",
        "ec0f6ea9fbbbd78080565da74441b4a72485af2c35547a2d00d1047e57195b23",
    ),
    "LZ2": (
        "03ae1929025eac6e1885196e220b00ccc08b6b3af634291a41c8d211efdacef8",
        "10833dffd04bef285b4126ee19a53bee59ae7ae2cf0fe70721c2f40a40541ade",
    ),
    "N2": (
        "03ae1929025eac6e1885196e220b00ccc08b6b3af634291a41c8d211efdacef8",
        "25a84c2bbe9b757fe36681cfa7575e0d1e3189c44fa78bdd5e768e476c3d2370",
    ),
    "N2_CHAIN": (
        "03ae1929025eac6e1885196e220b00ccc08b6b3af634291a41c8d211efdacef8",
        "0d99f07e9f47e32399e478579678418c8795511e7ff49a597675769e4f76b1e3",
    ),
    "PLZ2": (
        "61bb065c1962c8fb01135e84302d4022a7437d57b13f12f62c0c7b6b82c11057",
        "ab34a6ce0c758426ea90970fe01ea46de1edd67537b0dda95dbf02b32fdc782b",
    ),
    "PZ2": (
        "61bb065c1962c8fb01135e84302d4022a7437d57b13f12f62c0c7b6b82c11057",
        "4cc6d8feebd002a9283b110038a32ce49c7648a44f097ee1570d50413f76a7d9",
    ),
    "RZ2": (
        "03ae1929025eac6e1885196e220b00ccc08b6b3af634291a41c8d211efdacef8",
        "c1895eb687eb461cbd9a484d1b45f42d05dfd91756c08f5a42dc834c97722e99",
    ),
    "SL2": (
        "114f27d9bd0f2f5a413e59ed626e894bda8ad0d19fd31f4a599b8ee6628afdf8",
        "ba16c7448463db7aaf5c8c5907af2d2f379e06a620d3db911bc3cbc29f174dd0",
    ),
    "SL2_DUAL": (
        "03ae1929025eac6e1885196e220b00ccc08b6b3af634291a41c8d211efdacef8",
        "2a4b399bc3e93f11d1663a0407781a0dd6bfa2be91f956e506dd53c0bc2a1536",
    ),
    "T1": (
        "6b7442f44c4126c36b52ff830218a6c902a215809476d3d6de4fa78d8516f44e",
        "a8f972d5622cd39d2ff47a87704a7da7aa3881692a73193b316ec5111da75eee",
    ),
}

# SHA-256 of the outputs of `green --kind K FILE` and `green --kind K --json
# FILE`, for K = L, R, J, H in turn, one digest per fixture
GREEN_CLI_SHA = {
    "B2": "af0cbbdd93bcd391e176e6824303fcb6825a0edf114ce7664d64f379a0900c24",
    "CH3": "c676bd999894f08b826121ecf5c19af88f5ead35125afb76a50262ac37e0ec55",
    "LZ2": "018821baed13932e768c4f3a6f45357f1cb923c908368fe0d34542c51670bdd1",
    "N2": "a7ed8bd651d09551b5b26ba4c67f6636b5ffbc030306ef37da429a202c4e7476",
    "N2_CHAIN": "a69fe09aaf2ac3aacfbd0fe9090f8c7e065fb30671ee2e4177904680b4c2c2cc",
    "PLZ2": "9fc00fbc7113242c34016e191677b9434aa52b532439f7d0503ede4a4f1a504d",
    "PZ2": "c5e2e46e95ffc77fcc686dbfe7fc694bc59849930a7b70dfc888e686098f24c6",
    "RZ2": "add3e00ebfa2f782c321e0503aea6fdf183c3023690f6626b69170076658928a",
    "SL2": "467a49c6abbdfb4a4ddcc3d88c9d4b568a278c4035dfe616a3e00f23fa4f277d",
    "SL2_DUAL": "126f3502ffea27f78050a97407ed059fc2539fdae4d6aa9581ab7f41c4ebeff1",
    "T1": "cb0b3ac773c9e5aa0d8810b59056dce45451db8dc1171536a41558fec207263a",
}

# SHA-256 of the members of every ideal, by ``enumerate_ideals``, of every
# side on every structure of order <= 3
IDEALS_SHA = "cebaa581363df196c131cd47c55f79b64fcecbede35f64068e1ad3d951bacc87"

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


@pytest.mark.parametrize("name", sorted(GREEN_CLI_SHA))
def test_green_cli_golden(name, tmp_path, capsys):
    path = tmp_path / f"{name}.osg"
    path.write_text(serialize_document(ORDERED_FIXTURES[name]()))
    h = hashlib.sha256()
    for kind in "LRJH":
        for extra in ([], ["--json"]):
            assert main(["green", str(path), "--kind", kind, *extra]) == 0
            h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == GREEN_CLI_SHA[name]


def test_enumerate_ideals_golden():
    assert _digest(
        repr([list(bits(m)) for m in enumerate_ideals(s, side)])
        for s in _ordered()
        for side in Side
    ) == IDEALS_SHA


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
