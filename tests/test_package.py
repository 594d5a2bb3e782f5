"""The package namespace: every public name resolves lazily to its home module."""

import importlib

import pytest

import starres

# home module -> names `starres` exports
PUBLIC = {
    "errors": "NotMinimalError ParameterError PreconditionError StarresError",
    "lgroup": (
        "LElement Parameters SpecialElements all_ai_one coprime_criterion in_interval_0_c"
        " is_positive is_torsion l_add l_leq l_neg l_scale normal_form reduce_parameters"
        " special_elements"
    ),
    "hj": (
        "HJExpansion ISeries hj_eval hj_expand i_series i_set ito_oracle j_series residue"
        " residue_criterion"
    ),
    "gradedring": (
        "GradedPiece Monomial RingElement Subspace graded_basis graded_dim multiply piece_product"
    ),
    "intersection": (
        "IntersectionMatrix canonical_cycle fundamental_cycle fundamental_cycle_brute"
        " is_negative_definite is_reduced matrix_from_graph pair"
    ),
    "resolution": (
        "DualGraph ModuleLabel OracleResult blow_down_chain dual_graph graph_from_json"
        " is_minimal make_star specials speciality_oracle to_dot"
    ),
    "reconalg": (
        "CanonicalAlgebraDesc DomesticInfo QuiverData WahlPresentation degree_zero_canonical"
        " domestic_classify quiver_combinatorial quiver_from_intersection wahl_generators"
        " wahl_relations wahl_special_ideals wahl_verify"
    ),
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names.split()]


@pytest.mark.parametrize("module, name", NAMES)
def test_name_is_its_home_binding(module, name):
    home = importlib.import_module(f"starres.{module}")
    assert getattr(starres, name) is getattr(home, name)


def test_all_and_dir_list_every_name():
    names = {name for _, name in NAMES}
    assert set(starres.__all__) == names
    assert names <= set(dir(starres))


def test_version():
    assert starres.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(starres, "no_such_name")
    assert not hasattr(starres, "no_such_name")


def test_lookup_follows_a_patched_home_module(monkeypatch):
    # a tracer patches and restores home modules; the package must not keep a stale copy
    import starres.resolution

    original = starres.dual_graph

    def stub(*args):
        return None

    monkeypatch.setattr(starres.resolution, "dual_graph", stub)
    assert starres.dual_graph is stub
    monkeypatch.undo()
    assert starres.dual_graph is original
    assert "dual_graph" not in vars(starres)
