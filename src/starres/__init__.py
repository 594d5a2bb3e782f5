"""Combinatorial invariants of graded Veronese surface singularities.

The pipeline goes: group arithmetic (lgroup) -> continued-fraction
combinatorics (hj) -> exact graded-ring arithmetic (gradedring) -> dual
graphs and special modules (resolution) -> intersection theory
(intersection) -> quivers, presentation, Dynkin classification (reconalg),
with a CLI on top and seeded cross-check sweeps (sweeps).
"""

from .errors import NotMinimalError, ParameterError, PreconditionError, StarresError
from .lgroup import (
    LElement,
    Parameters,
    SpecialElements,
    all_ai_one,
    coprime_criterion,
    in_interval_0_c,
    is_positive,
    is_torsion,
    l_add,
    l_leq,
    l_neg,
    l_scale,
    normal_form,
    reduce_parameters,
    special_elements,
)
from .hj import HJExpansion, ISeries, hj_eval, hj_expand, i_series, i_set, ito_oracle, j_series, residue, residue_criterion
from .gradedring import (
    GradedPiece,
    Monomial,
    RingElement,
    Subspace,
    graded_basis,
    graded_dim,
    multiply,
    piece_product,
)
from .intersection import (
    IntersectionMatrix,
    canonical_cycle,
    fundamental_cycle,
    fundamental_cycle_brute,
    is_negative_definite,
    is_reduced,
    matrix_from_graph,
    pair,
)
from .resolution import (
    DualGraph,
    ModuleLabel,
    OracleResult,
    blow_down_chain,
    dual_graph,
    graph_from_json,
    is_minimal,
    make_star,
    specials,
    speciality_oracle,
    to_dot,
)
from .reconalg import (
    CanonicalAlgebraDesc,
    DomesticInfo,
    QuiverData,
    WahlPresentation,
    degree_zero_canonical,
    domestic_classify,
    quiver_combinatorial,
    quiver_from_intersection,
    wahl_generators,
    wahl_relations,
    wahl_special_ideals,
    wahl_verify,
)

__version__ = "0.1.0"
