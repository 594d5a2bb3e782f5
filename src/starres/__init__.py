"""Combinatorial invariants of graded Veronese surface singularities.

The pipeline goes: group arithmetic (lgroup) -> continued-fraction
combinatorics (hj) -> exact graded-ring arithmetic (gradedring) -> dual
graphs and special modules (resolution) -> intersection theory
(intersection) -> quivers, presentation, Dynkin classification (reconalg),
with a CLI on top and seeded cross-check sweeps (sweeps).

``import starres`` loads no submodule: each name below is read from its home
module when accessed (PEP 562 ``__getattr__``), which imports that module on
first use.  The reason is cold-start cost: a CLI run is a fresh interpreter
that compiles and executes every module it imports, and ``starres iseries``
needs ``hj`` alone.  The lookup is not cached in this namespace, so
``starres.<name>`` is always what the home module binds now, also while a
test or a tracer patches it and after the patch is undone.

The records (``Parameters``, ``LElement``, ``DualGraph`` and the rest) are
NamedTuples for the same reason: frozen data classes would import the
standard library's data-class module and ``inspect``, and execute generated
methods per class.
"""

import importlib

__version__ = "0.1.0"

# home module -> the names re-exported here
_EXPORTS = {
    "errors": ("NotMinimalError", "ParameterError", "PreconditionError", "StarresError"),
    "lgroup": (
        "LElement",
        "Parameters",
        "SpecialElements",
        "coprime_criterion",
        "in_interval_0_c",
        "is_positive",
        "is_torsion",
        "l_add",
        "l_neg",
        "l_scale",
        "normal_form",
        "reduce_parameters",
        "special_elements",
    ),
    "hj": (
        "HJExpansion",
        "ISeries",
        "hj_eval",
        "hj_expand",
        "i_series",
        "i_set",
        "ito_oracle",
        "residue_criterion",
    ),
    "gradedring": (
        "GradedPiece",
        "Monomial",
        "RingElement",
        "graded_basis",
        "graded_dim",
        "multiply",
        "piece_product",
    ),
    "intersection": (
        "IntersectionMatrix",
        "canonical_cycle",
        "fundamental_cycle",
        "fundamental_cycle_brute",
        "is_negative_definite",
        "is_reduced",
        "matrix_from_graph",
        "pair",
    ),
    "resolution": (
        "DualGraph",
        "ModuleLabel",
        "OracleResult",
        "dual_graph",
        "graph_from_json",
        "make_star",
        "specials",
        "speciality_oracle",
        "to_dot",
    ),
    "reconalg": (
        "CanonicalAlgebraDesc",
        "DomesticInfo",
        "QuiverData",
        "WahlPresentation",
        "degree_zero_canonical",
        "domestic_classify",
        "quiver_combinatorial",
        "quiver_from_intersection",
        "wahl_generators",
        "wahl_relations",
        "wahl_special_ideals",
        "wahl_verify",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | _HOME.keys())
