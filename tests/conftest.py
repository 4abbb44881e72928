"""Shared fixture structures.

T1        one-element structure
SL2       two-chain meet semilattice (min, 0 <= 1)
SL2_DUAL  min table under the reversed chain
LZ2/RZ2   left-/right-zero bands, discrete order
N2        null semigroup (xy = 0), discrete order
N2_CHAIN  null semigroup with 0 <= 1
CH3       three-chain meet semilattice (min, 0 <= 1 <= 2)
B2        five-element combinatorial inverse semigroup, discrete order
Z2/Z3     cyclic groups (unordered)
LZ2_SG    the left-zero band, unordered
N2_SG     the null semigroup, unordered
PZ2       power structure of Z2
PLZ2      power structure of the left-zero band

``differential_structures`` streams the structures that differential tests
compare fast paths and brute-force oracles on, and ``serial_pool`` runs a
``--workers`` sweep's pool tasks in the calling process
(``install_serial_pool``).
"""

import concurrent.futures

import pytest

from ordsgp import sweep as sweep_module
from ordsgp import (
    enumerate_ordered_semigroups,
    power_ordered_semigroup,
    sample_ordered_semigroups,
    validate_semigroup,
    validate_structure,
)


def make_t1():
    return validate_structure(1, [[0]])


def make_sl2():
    return validate_structure(2, [[0, 0], [0, 1]], [(0, 1)])


def make_sl2_dual():
    return validate_structure(2, [[0, 0], [0, 1]], [(1, 0)])


def make_lz2():
    return validate_structure(2, [[0, 0], [1, 1]])


def make_rz2():
    return validate_structure(2, [[0, 1], [0, 1]])


def make_n2():
    return validate_structure(2, [[0, 0], [0, 0]])


def make_n2_chain():
    return validate_structure(2, [[0, 0], [0, 0]], [(0, 1)])


def make_ch3():
    table = [[min(i, j) for j in range(3)] for i in range(3)]
    return validate_structure(3, table, [(0, 1), (0, 2), (1, 2)])


def make_b2():
    # elements: 0 = zero, 1 = a, 2 = b, 3 = ab, 4 = ba with aba = a,
    # bab = b, a*a = b*b = 0
    table = [
        [0, 0, 0, 0, 0],
        [0, 0, 3, 0, 1],
        [0, 4, 0, 2, 0],
        [0, 1, 0, 3, 0],
        [0, 0, 2, 0, 4],
    ]
    return validate_structure(5, table)


def make_z2():
    return validate_semigroup(2, [[0, 1], [1, 0]])


def make_z3():
    return validate_semigroup(3, [[(i + j) % 3 for j in range(3)] for i in range(3)])


def make_lz2_sg():
    return validate_semigroup(2, [[0, 0], [1, 1]])


def make_n2_sg():
    return validate_semigroup(2, [[0, 0], [0, 0]])


def make_pz2():
    return power_ordered_semigroup(make_z2())


def make_plz2():
    return power_ordered_semigroup(make_lz2_sg())


ORDERED_FIXTURES = {
    "T1": make_t1,
    "SL2": make_sl2,
    "SL2_DUAL": make_sl2_dual,
    "LZ2": make_lz2,
    "RZ2": make_rz2,
    "N2": make_n2,
    "N2_CHAIN": make_n2_chain,
    "CH3": make_ch3,
    "B2": make_b2,
    "PZ2": make_pz2,
    "PLZ2": make_plz2,
}

UNORDERED_FIXTURES = {
    "Z2": make_z2,
    "Z3": make_z3,
    "LZ2_SG": make_lz2_sg,
    "N2_SG": make_n2_sg,
}

# every pair in these has a least upper bound (and joins distribute)
JOIN_CLOSED = ("T1", "SL2", "CH3", "PZ2", "PLZ2")


def all_ordered_fixtures():
    return [(name, build()) for name, build in ORDERED_FIXTURES.items()]


def differential_structures():
    """Every ordered semigroup of order <= 3, then a 1,000-structure sample
    of order 4."""
    for n in (1, 2, 3):
        yield from enumerate_ordered_semigroups(n)
    yield from sample_ordered_semigroups(4, 1000, 20260810)


@pytest.fixture
def t1():
    return make_t1()


@pytest.fixture
def sl2():
    return make_sl2()


@pytest.fixture
def lz2():
    return make_lz2()


@pytest.fixture
def rz2():
    return make_rz2()


@pytest.fixture
def n2():
    return make_n2()


@pytest.fixture
def ch3():
    return make_ch3()


@pytest.fixture
def b2():
    return make_b2()


@pytest.fixture
def z2():
    return make_z2()


@pytest.fixture
def pz2():
    return make_pz2()


@pytest.fixture
def plz2():
    return make_plz2()


def install_serial_pool(patch):
    """Two CPUs and a stand-in for ProcessPoolExecutor that runs each task
    when it is submitted and starts nothing, installed by ``patch(obj,
    name, value)``: ``monkeypatch.setattr`` in a test, ``setattr`` in a
    process of its own.  Returns a log of each pool's max_workers and the
    most results submitted and not yet read."""
    log = {"started": [], "in_flight": 0, "most_in_flight": 0}

    class Done:
        def __init__(self, value):
            self.value = value

        def result(self):
            log["in_flight"] -= 1
            return self.value

    class SerialPool:
        def __init__(self, max_workers):
            log["started"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            log["in_flight"] += 1
            log["most_in_flight"] = max(log["most_in_flight"], log["in_flight"])
            return Done(fn(*args))

    patch(sweep_module.os, "cpu_count", lambda: 2)
    patch(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return log


@pytest.fixture
def serial_pool(monkeypatch):
    """``install_serial_pool`` for one test."""
    return install_serial_pool(monkeypatch.setattr)
