"""The benchmark's calls into starres: the names it traces resolve, and one
round of each in-process workload runs with every case ok.

``perfbench`` is run as a script, not installed, so its modules are loaded
from their files here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    layers = _load("tracing").LAYERS
    for mod, names in layers.items():
        module = importlib.import_module(f"starres.{mod}")
        for name in names:
            assert callable(getattr(module, name, None)), f"starres.{mod}.{name}"


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads").WORKLOADS


@pytest.mark.parametrize("workload", ["span", "bigstar", "sweep"])
def test_one_round_is_ok(workloads, workload):
    make_round, run_case = workloads[workload]
    cases = make_round(0, 0).cases
    assert cases
    failed = [(kind, payload) for kind, payload in cases if not run_case(kind, payload)[1]]
    assert not failed
