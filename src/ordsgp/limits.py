"""Size guards for exponential scans, overridable via ORDSGP_LIMITS.

ORDSGP_LIMITS is a comma-separated list of key=value pairs, e.g.
``ORDSGP_LIMITS="ideals=14,partitions=10"``.  Raising a guard is an
expert-only move: the guarded work is exponential (2^n subsets or ideals,
Bell(k) partitions, n^(n*n) tables).  The ``partitions`` guard bounds k,
the number of classes of the congruence that the complete semilattice
axioms generate (``congruence.complete_semilattice_congruences``), not the
carrier size.  Reading any guard checks every entry: an entry without
``=``, a key that names no guard or a value that is not an integer raises
``BadLimit`` naming the entry, so the CLI exits 2.  Each distinct value
of the variable is parsed once per process; a bad one raises on every
read.
"""

from __future__ import annotations

import os
from functools import lru_cache

from .errors import BadLimit, SizeLimit

DEFAULTS = {
    # carrier bound for 2^n subset scans (subset covers) and for ideal
    # enumeration, whose output can hold 2^n - 1 ideals
    "ideals": 12,
    # class bound for the Bell(k) scan over the generated congruence's classes
    "partitions": 9,
    # order bound for exhaustive semigroup / ordered-semigroup enumeration
    "semigroups": 4,
    # carrier bound for enumerating all compatible partial orders
    "orders": 5,
    # |F| bound for the power construction (carrier becomes 2^|F| - 1)
    "power": 10,
}


def get(guard: str) -> int:
    return _bounds(os.environ.get("ORDSGP_LIMITS", ""))[guard]


# a value is parsed once; one that raises is not cached and raises again
@lru_cache(maxsize=32)
def _bounds(value: str) -> dict[str, int]:
    """The guards with the entries of an ORDSGP_LIMITS value applied.
    Callers share the dict and must not change it."""
    bounds = dict(DEFAULTS)
    for item in value.split(","):
        item = item.strip()
        if not item:
            continue
        key, _, val = item.partition("=")
        key = key.strip()
        try:
            if key not in bounds:
                raise ValueError(f"no guard named {key!r}")
            bounds[key] = int(val)  # an entry without "=" has val ""
        except ValueError:
            raise BadLimit(f"bad ORDSGP_LIMITS entry: {item!r}") from None
    return bounds


def check(guard: str, requested: int) -> None:
    bound = get(guard)
    if requested > bound:
        raise SizeLimit(guard, requested, bound)
