"""Library sweeps refuse to pass after checking nothing."""

import random

import pytest

from starres import reconalg, resolution, sweeps
from starres.errors import PreconditionError
from starres.lgroup import Parameters, in_interval_0_c, normal_form
from starres.resolution import OracleResult


# test ids: "sweep_" and a short name for each check
EMPTY_COUNT_IDS = {
    "center-label": "sweep_center_label",
    "cycles": "sweep_cycles",
    "quiver": "sweep_quiver",
    "parameter-reduction": "sweep_reduce",
    "speciality-oracle": "sweep_speciality",
}


@pytest.mark.parametrize(
    "name", list(sweeps.CHECKS), ids=[EMPTY_COUNT_IDS.get(n, n) for n in sweeps.CHECKS]
)
def test_empty_count_raises(name):
    with pytest.raises(PreconditionError):
        sweeps.sweep(name, 0)


def test_iseries_empty_range_raises():
    with pytest.raises(PreconditionError):
        sweeps.sweep_iseries(1)
    assert sweeps.sweep_iseries(2) is None


def test_cycles_all_skipped_is_a_counterexample(monkeypatch):
    # every draw non-minimal: the first one is reported, the sweep does not pass
    params = Parameters([2, 3])
    x = normal_form(params, [0, 0], 1)  # c itself: lies in [0, c], non-minimal
    check = sweeps.CHECKS["cycles"][1]
    monkeypatch.setitem(sweeps.CHECKS, "cycles", (lambda rng: (params, x), check))
    assert sweeps.sweep("cycles", 3) == {"check": "non-minimal", "p": [2, 3], "x": x.to_json()}


@pytest.mark.parametrize("name", list(sweeps.CHECKS))
def test_draws_stay_outside_0_c(name):
    # the guard behind the "non-minimal" counterexample: no draw lies in [0, c]
    draw, _ = sweeps.CHECKS[name]
    rng = random.Random(7)
    for _ in range(300):
        params, x = draw(rng)
        assert not in_interval_0_c(x), (name, params.weights, x)


def test_run_all_draws_count_inputs_per_check(monkeypatch):
    drawn = dict.fromkeys(sweeps.CHECKS, 0)

    def counted(name, draw):
        def counting_draw(rng):
            drawn[name] += 1
            return draw(rng)

        return counting_draw

    for name, (draw, _) in list(sweeps.CHECKS.items()):
        monkeypatch.setitem(sweeps.CHECKS, name, (counted(name, draw), lambda params, x: None))
    assert sweeps.run_all(seed=3, rmax=2, count=23) is None
    assert drawn == dict.fromkeys(sweeps.CHECKS, 23)


def test_cycles_tree_route_checked_against_dense(monkeypatch):
    assert sweeps.sweep("cycles", 10) is None
    monkeypatch.setattr(sweeps, "canonical_cycle", lambda m: (0,) * m.size)
    found = sweeps.sweep("cycles", 10)
    assert found["check"] == "tree-vs-dense" and found["quantity"] == "canonical-cycle"
    monkeypatch.setattr(sweeps, "is_negative_definite", lambda m: False)
    found = sweeps.sweep("cycles", 10)
    assert found["check"] == "tree-vs-dense" and found["quantity"] == "negative-definite"


def test_speciality_witness_for_a_special_module(monkeypatch):
    monkeypatch.setattr(sweeps, "speciality_oracle", lambda *args: OracleResult(False, 1))
    monkeypatch.setattr(sweeps, "_speciality_by_rank", lambda *args: OracleResult(False, 1))
    found = sweeps.sweep("speciality-oracle", 1)
    assert found["check"] == "speciality-oracle"
    assert found["classification"] is True and found["witness"] == 1


def test_speciality_special_verdict_for_a_nonspecial_module(monkeypatch):
    # an oracle verdict is a proof, so "special" against the classification is a counterexample
    monkeypatch.setattr(sweeps, "i_set", lambda r, a: frozenset())
    monkeypatch.setattr(sweeps, "speciality_oracle", lambda *args: OracleResult(True))
    monkeypatch.setattr(sweeps, "_speciality_by_rank", lambda *args: OracleResult(True))
    found = sweeps.sweep("speciality-oracle", 1)
    assert found["check"] == "speciality-oracle"
    assert (found["oracle"], found["witness"], found["classification"]) == (True, None, False)


def test_speciality_checked_against_rank_route(monkeypatch):
    monkeypatch.setattr(sweeps, "_speciality_by_rank", lambda *args: OracleResult(False, 7))
    found = sweeps.sweep("speciality-oracle", 1)
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
    assert sweeps.sweep("quiver", 10, 0) is None
    assert len(calls) == 20
