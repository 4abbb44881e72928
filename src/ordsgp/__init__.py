"""Finite ordered semigroups: structure, ideals, Green's relations,
regularity classes, semilattice decompositions, power constructions, and
exhaustive verification of their characterization theorems.

The exports are what the commands, the checks and the benchmark call.
Facts about single elements (ordered idempotents, ordered inverses,
regularity, principal ideals and filters) are not exported one element at
a time: the checks read them off carrier-wide masks and scans in
``ordsgp.elements`` and ``ordsgp.ideals``.  Nor are products, the order
or setwise products wrapped: they are read from a structure's ``table``
and ``leq`` and from ``core.product_mask``.

A subset of the carrier is a bitmask over it, taken and returned as an
int, and an equivalence relation is its class ids.  Nothing that a
structure caches refers back to it, so a dropped structure is freed at
once, wherever its checks ran.
"""

from .core import (
    FiniteSemigroup,
    OrderedSemigroup,
    down_closure,
    induced_substructure,
    validate_semigroup,
    validate_structure,
)
from .elements import group_component
from .ideals import (
    EquivalenceRelation,
    Side,
    enumerate_ideals,
    green_relation,
    idempotent_ideal_identities,
    n_relation,
)
from .classification import (
    BUNDLE_ORDER,
    PREDICATE_ORDER,
    THEOREM_ORDER,
    classify,
    equivalence_bundle,
    predicate,
    structure_theorem_check,
)
from .congruence import (
    Decomposition,
    RelationProperties,
    complete_semilattice_congruences,
    decompose,
    enumerate_partitions,
    relation_properties,
)
from .power import (
    SemigroupMorphism,
    is_completely_regular_semigroup,
    is_group,
    is_left_group,
    join,
    power_correspondence_check,
    power_ordered_semigroup,
    semigroup_morphism,
    universal_extension,
)
from .enumeration import (
    enumerate_compatible_orders,
    enumerate_ordered_semigroups,
    enumerate_semigroups,
    resume_position,
    resume_token,
    sample_ordered_semigroups,
    transcript_hash,
)
from .fileformat import parse_document, serialize_document
from .report import (
    BundleResult,
    ClassificationReport,
    ConditionResult,
    PredicateResult,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "BUNDLE_ORDER",
    "BundleResult",
    "ClassificationReport",
    "ConditionResult",
    "Decomposition",
    "EquivalenceRelation",
    "FiniteSemigroup",
    "OrderedSemigroup",
    "PREDICATE_ORDER",
    "PredicateResult",
    "RelationProperties",
    "SemigroupMorphism",
    "Side",
    "THEOREM_ORDER",
    "classify",
    "complete_semilattice_congruences",
    "decompose",
    "down_closure",
    "enumerate_compatible_orders",
    "enumerate_ideals",
    "enumerate_ordered_semigroups",
    "enumerate_partitions",
    "enumerate_semigroups",
    "equivalence_bundle",
    "errors",
    "green_relation",
    "group_component",
    "idempotent_ideal_identities",
    "induced_substructure",
    "is_completely_regular_semigroup",
    "is_group",
    "is_left_group",
    "join",
    "n_relation",
    "parse_document",
    "power_correspondence_check",
    "power_ordered_semigroup",
    "predicate",
    "relation_properties",
    "resume_position",
    "resume_token",
    "sample_ordered_semigroups",
    "semigroup_morphism",
    "serialize_document",
    "structure_theorem_check",
    "transcript_hash",
    "universal_extension",
    "validate_semigroup",
    "validate_structure",
]
