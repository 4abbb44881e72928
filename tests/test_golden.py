"""Golden outputs: SHA-256 digests of every report over all structures of
order <= 3.

Each digest pins the full JSON (or repr) of one report family, so any
change to a verdict, a least witness, a counterexample or a condition
label shows up here.  A refactor of the scans must leave all four
unchanged.
"""

import hashlib
import json

from ordsgp import (
    classify,
    element_regularity,
    enumerate_ordered_semigroups,
    enumerate_semigroups,
    power_correspondence_check,
    structure_theorem_check,
)
from ordsgp.cli import _bundle_json, _classification_json
from ordsgp.congruence import THEOREM_ORDER

CLASSIFY_SHA = "41647785fbaaf6f82f58ae53317e03c545e60b95af24790ed8ccecc828f8be3e"
THEOREMS_SHA = "59fc5d1f0151f3d1464b331d4abd9fe55013c90b72f2332b67a093ca1d8594d5"
ELEMENTS_SHA = "667d6008c06b61466e53b995814aac5e3ed0ec2f9c69cfc02b48d3da752711b9"
POWER_SHA = "067ca4a62188bc6cfd0d2b0590f73ea4be2fbab5c0bb514d90836cd4aaac28c1"

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


def test_element_regularity_golden():
    def reprs():
        for s in _ordered():
            for a in range(s.size):
                r = element_regularity(s, a)
                yield repr(
                    (
                        r.regular,
                        r.completely_regular,
                        r.left_regular,
                        r.right_regular,
                        sorted(r.witnesses.items()),
                    )
                )

    assert _digest(reprs()) == ELEMENTS_SHA


def test_power_correspondence_golden():
    assert _digest(
        json.dumps(_bundle_json(power_correspondence_check(f, p)), sort_keys=True)
        for n in (1, 2, 3)
        for f in enumerate_semigroups(n)
        for p in POWER_PROPERTIES
    ) == POWER_SHA
