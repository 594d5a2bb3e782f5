"""Library sweeps refuse to pass after checking nothing."""

import pytest

from starres import reconalg, resolution, sweeps
from starres.errors import PreconditionError
from starres.lgroup import Parameters, normal_form
from starres.resolution import OracleResult


@pytest.mark.parametrize(
    "sweep",
    [
        sweeps.sweep_center_label,
        sweeps.sweep_cycles,
        sweeps.sweep_quiver,
        sweeps.sweep_reduce,
        sweeps.sweep_speciality,
    ],
)
def test_empty_count_raises(sweep):
    with pytest.raises(PreconditionError):
        sweep(0)


def test_iseries_empty_range_raises():
    with pytest.raises(PreconditionError):
        sweeps.sweep_iseries(1)
    assert sweeps.sweep_iseries(2) is None


def test_cycles_all_skipped_is_a_counterexample(monkeypatch):
    params = Parameters([2, 3])
    x = normal_form(params, [0, 0], 1)  # c itself: lies in [0, c], non-minimal
    monkeypatch.setattr(sweeps, "random_element", lambda rng: (params, x))
    assert sweeps.sweep_cycles(3) == {"check": "cycles-none-checked", "count": 3, "seed": 0}


def test_cycles_tree_route_checked_against_dense(monkeypatch):
    assert sweeps.sweep_cycles(10) is None
    monkeypatch.setattr(sweeps, "canonical_cycle", lambda m: (0,) * m.size)
    found = sweeps.sweep_cycles(10)
    assert found["check"] == "tree-vs-dense" and found["quantity"] == "canonical-cycle"
    monkeypatch.setattr(sweeps, "is_negative_definite", lambda m: False)
    found = sweeps.sweep_cycles(10)
    assert found["check"] == "tree-vs-dense" and found["quantity"] == "negative-definite"


def test_speciality_witness_for_a_special_module(monkeypatch):
    monkeypatch.setattr(sweeps, "speciality_oracle", lambda *args: OracleResult(False, 1))
    monkeypatch.setattr(sweeps, "_speciality_by_rank", lambda *args: OracleResult(False, 1))
    found = sweeps.sweep_speciality(1)
    assert found["check"] == "speciality-oracle"
    assert found["classification"] is True and found["witness"] == 1


def test_speciality_special_verdict_for_a_nonspecial_module(monkeypatch):
    # an oracle verdict is a proof, so "special" against the classification is a counterexample
    monkeypatch.setattr(sweeps, "i_set", lambda r, a: frozenset())
    monkeypatch.setattr(sweeps, "speciality_oracle", lambda *args: OracleResult(True))
    monkeypatch.setattr(sweeps, "_speciality_by_rank", lambda *args: OracleResult(True))
    found = sweeps.sweep_speciality(1)
    assert found["check"] == "speciality-oracle"
    assert (found["oracle"], found["witness"], found["classification"]) == (True, None, False)


def test_speciality_checked_against_rank_route(monkeypatch):
    monkeypatch.setattr(sweeps, "_speciality_by_rank", lambda *args: OracleResult(False, 7))
    found = sweeps.sweep_speciality(1)
    assert found["check"] == "certificate-vs-rank"
    assert (found["rank"], found["rank_witness"]) == (False, 7)


def test_quiver_sweep_reuses_its_graph(monkeypatch):
    # one dual graph inside quiver_combinatorial, one for the intersection
    # route, whose special modules are read off that same graph
    calls = []
    real = resolution.dual_graph
    counted = lambda *a: calls.append(a) or real(*a)  # noqa: E731
    for module in (resolution, reconalg, sweeps):
        monkeypatch.setattr(module, "dual_graph", counted)
    assert sweeps.sweep_quiver(10, 0) is None
    assert len(calls) == 20
