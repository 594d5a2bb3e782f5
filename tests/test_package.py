"""The package namespace: every public name resolves lazily to its home module."""

import ast
import importlib
from pathlib import Path

import pytest

import starres

# home module -> names `starres` exports
PUBLIC = {
    "errors": "NotMinimalError ParameterError PreconditionError StarresError",
    "lgroup": (
        "LElement Parameters SpecialElements coprime_criterion in_interval_0_c is_positive"
        " is_torsion l_add l_neg l_scale normal_form reduce_parameters special_elements"
    ),
    "hj": (
        "HJExpansion ISeries hj_eval hj_expand i_series i_set ito_oracle residue_criterion"
    ),
    "gradedring": (
        "GradedPiece Monomial RingElement graded_basis graded_dim multiply piece_product"
    ),
    "intersection": (
        "IntersectionMatrix canonical_cycle fundamental_cycle fundamental_cycle_brute"
        " is_negative_definite is_reduced matrix_from_graph pair"
    ),
    "resolution": (
        "DualGraph ModuleLabel OracleResult dual_graph graph_from_json make_star specials"
        " speciality_oracle to_dot"
    ),
    "reconalg": (
        "CanonicalAlgebraDesc DomesticInfo QuiverData WahlPresentation degree_zero_canonical"
        " domestic_classify quiver_combinatorial quiver_from_intersection wahl_generators"
        " wahl_relations wahl_special_ideals wahl_verify"
    ),
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names.split()]

# exported names that no module of the package refers to, each with its reason
UNREFERENCED = {
    "hj_eval": "reads arm labels back to p_i/(p_i - a_i) for the planned graph input",
    "graph_from_json": "parses the CLI's graph JSON for the planned graph input",
    "coprime_criterion": "the paper's coprime criterion; the oracle tests the gcds inline",
}

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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


def _package_references() -> set[str]:
    """Every name and attribute the package's modules read, ``__init__`` aside."""
    referenced = set()
    for path in Path(starres.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return referenced


def test_every_export_is_referenced_by_the_package():
    # a public name only tests use is not part of the calculator: it is deleted or allowlisted
    unreferenced = set(starres.__all__) - _package_references()
    assert unreferenced == set(UNREFERENCED)


def test_every_traced_function_is_referenced_by_the_package():
    # a layer the benchmark times must be code the calculator runs; the
    # tracer's LAYERS literal is read from its source, not imported
    layers = next(
        ast.literal_eval(node.value)
        for node in ast.parse(TRACING.read_text()).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)
    )
    referenced = _package_references()
    dead = [f"{module}.{name}" for module, names in layers.items() for name in names
            if name not in referenced]
    assert not dead
