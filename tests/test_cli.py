"""End-to-end command-line behavior and output stability."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from starres import reconalg, resolution
from starres.cli import main
from starres.resolution import dual_graph, graph_from_json, specials, to_dot
from starres.lgroup import Parameters, in_interval_0_c, normal_form


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


ROOT = Path(__file__).resolve().parents[1]

# README commands with their stdout recorded byte for byte
GOLDEN = json.loads((ROOT / "perfbench" / "cli_golden.json").read_text("utf-8"))


def spawn(*argv):
    """Run a fresh interpreter on this checkout's src, as a CLI call does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, env=env, timeout=120)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_stdout(capsys, name):
    code, out, _ = run(capsys, *GOLDEN[name]["argv"])
    assert code == 0
    assert out == GOLDEN[name]["stdout"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_stdout_cold_spawn(name):
    # in process every module is already loaded; a cold spawn runs the lazy imports
    proc = spawn("-m", "starres.cli", *GOLDEN[name]["argv"])
    assert proc.returncode == 0, proc.stderr.decode("utf-8")
    assert proc.stdout.decode("utf-8") == GOLDEN[name]["stdout"]


def loaded_modules(argv):
    """starres modules in sys.modules after `import starres` and, if argv, one CLI call."""
    script = (
        "import contextlib, io, json, sys\n"
        "import starres\n"
        "argv = json.loads(sys.argv[1])\n"
        "if argv:\n"
        "    from starres.cli import main\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] == 'starres')))\n"
    )
    proc = spawn("-c", script, json.dumps(argv))
    assert proc.returncode == 0, proc.stderr.decode("utf-8")
    return set(json.loads(proc.stdout))


class TestImportFootprint:
    def test_package_import_loads_no_submodule(self):
        assert loaded_modules([]) == {"starres"}

    def test_iseries_loads_hj_only(self):
        assert loaded_modules(["iseries", "17", "10"]) == {
            "starres",
            "starres.cli",
            "starres.errors",
            "starres.hj",
        }

    @pytest.mark.parametrize("command", ["graph", "specials"])
    def test_graph_commands_skip_quiver_modules(self, command):
        modules = loaded_modules([command, "--p", "3,5,5", "--x", "2,2,3"])
        assert "starres.resolution" in modules
        assert not modules & {"starres.reconalg", "starres.intersection", "starres.sweeps"}
        # the oracle needs no linear algebra, so resolution loads neither
        assert not modules & {"starres.linalg", "starres.gradedring"}

    def test_resolution_import_footprint(self):
        proc = spawn(
            "-c",
            "import json, sys, starres.resolution\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] == 'starres')))",
        )
        assert proc.returncode == 0, proc.stderr.decode("utf-8")
        assert set(json.loads(proc.stdout)) == {
            "starres",
            "starres.errors",
            "starres.hj",
            "starres.lgroup",
            "starres.resolution",
        }

    @pytest.mark.parametrize("name", [*sorted(GOLDEN), "import starres.reconalg"])
    def test_no_dataclasses_or_inspect(self, name):
        # the records are NamedTuples: a cold call loads neither module
        report = "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
        if name in GOLDEN:
            # as `python -m starres.cli` runs it
            script = (
                "import runpy, sys\n"
                "try:\n"
                "    runpy.run_module('starres.cli', run_name='__main__', alter_sys=True)\n"
                "except SystemExit as exc:\n"
                "    assert not exc.code, exc.code\n"
                + report
            )
            proc = spawn("-c", script, *GOLDEN[name]["argv"])
            expected = GOLDEN[name]["stdout"] + "[]\n"
        else:
            proc = spawn("-c", f"import sys, starres.reconalg\n{report}")
            expected = "[]\n"
        assert proc.returncode == 0, proc.stderr.decode("utf-8")
        assert proc.stdout.decode("utf-8") == expected


class TestISeries:
    def test_17_10(self, capsys):
        code, out, _ = run(capsys, "iseries", "17", "10")
        assert code == 0
        assert json.loads(out) == {
            "r": 17,
            "a": 10,
            "expansion": [2, 4, 2, 2],
            "series": [17, 10, 3, 2, 1, 0],
            "set": [0, 1, 2, 3, 10, 17],
        }

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "iseries", "5", "3")
        _, second, _ = run(capsys, "iseries", "5", "3")
        assert first == second


class TestGraph:
    def test_dot(self, capsys):
        code, out, _ = run(
            capsys, "graph", "--p", "3,5,5", "--x", "2,2,3", "--c", "0", "--format", "dot"
        )
        assert code == 0
        assert out.startswith("graph dualgraph {")
        assert 'center [label="-3"]' in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "graph", "--p", "3,5,5", "--x", "2,2,3")
        assert code == 0
        payload = json.loads(out)
        params = Parameters([3, 5, 5])
        expected = dual_graph(params, normal_form(params, [2, 2, 3], 0))
        assert graph_from_json(payload["graph"]) == expected
        assert payload["minimal"] is True

    def test_text(self, capsys):
        code, out, _ = run(capsys, "graph", "--p", "2,3,3", "--format", "text", "--x", "1,1,1")
        assert code == 0 and "star" in out


class TestSpecials:
    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "specials", "--p", "3,5,5", "--x", "2,2,3")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"graph", "minimal", "specials"}
        labels = [entry["label"] for entry in payload["specials"]]
        assert labels == ["R", "S(c)", "S(x1)", "S(3x2)", "S(x2)", "S(2x3)", "S(x3)"]


def _library_stdout(command, fmt, params, x):
    """What graph and specials print, composed from the public library calls."""
    g = dual_graph(params, x)
    labels = specials(params, x) if command == "specials" else None
    minimal = not in_interval_0_c(x)
    if fmt == "dot":
        return to_dot(g, labels) + "\n"
    if fmt == "text" and labels is None:
        return f"shape: {g.shape}  labels: {list(g.labels)}  minimal: {minimal}\n"
    if fmt == "text":
        vertices = ["-" if lab.vertex is None else lab.vertex for lab in labels]
        return "".join(f"{lab.display}\tvertex {v}\n" for lab, v in zip(labels, vertices))
    report = {"graph": g.to_json(), "minimal": minimal}
    if labels is not None:
        report["specials"] = [{"label": lab.display, "vertex": lab.vertex} for lab in labels]
    return json.dumps(report, sort_keys=True) + "\n"


@pytest.mark.parametrize("command", ["graph", "specials"])
@pytest.mark.parametrize("fmt", ["json", "dot", "text"])
def test_graph_commands_build_one_graph(capsys, monkeypatch, command, fmt):
    params = Parameters([3, 5, 5])
    expected = _library_stdout(command, fmt, params, normal_form(params, [2, 2, 3], 0))
    calls = []
    real = resolution.dual_graph
    monkeypatch.setattr(resolution, "dual_graph", lambda *a: calls.append(a) or real(*a))
    code, out, _ = run(capsys, command, "--p", "3,5,5", "--x", "2,2,3", "--format", fmt)
    assert code == 0 and len(calls) == 1
    assert out == expected


class TestQuiver:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "quiver", "--p", "3,5,5", "--x", "2,2,3")
        assert code == 0
        payload = json.loads(out)
        assert payload["degree_zero"] == {"q": [2, 3, 3], "mu": [[1, 0], [0, 1], [1, 1]]}
        assert len(payload["vertices"]) == 7

    def test_degenerate_falls_back(self, capsys):
        code, out, _ = run(capsys, "quiver", "--p", "2,3", "--x", "0,0", "--c", "2")
        assert code == 0
        assert json.loads(out)["degenerate"] is True

    @staticmethod
    def _graphs_built(capsys, monkeypatch, argv):
        """dual_graph calls of one CLI run, whose stdout must not change."""
        _, expected, _ = run(capsys, *argv)
        calls = []
        real = resolution.dual_graph
        counted = lambda *a: calls.append(a) or real(*a)  # noqa: E731
        monkeypatch.setattr(resolution, "dual_graph", counted)
        monkeypatch.setattr(reconalg, "dual_graph", counted)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == expected
        return len(calls)

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_builds_one_graph(self, capsys, monkeypatch, fmt):
        # the CLI's graph serves the quiver, its special modules and the
        # degree-zero data
        argv = ["quiver", "--p", "3,5,5", "--x", "2,2,3", "--format", fmt]
        assert self._graphs_built(capsys, monkeypatch, argv) == 1

    def test_degenerate_reuses_its_graph(self, capsys, monkeypatch):
        # the intersection route and the degree-zero data read the CLI's graph
        argv = ["quiver", "--p", "2,3", "--x", "0,0", "--c", "2"]
        assert self._graphs_built(capsys, monkeypatch, argv) == 1

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "quiver", "--p", "2,3,3", "--x", "1,1,1", "--format", "dot")
        assert code == 0 and "digraph" in out


class TestWahl:
    def test_report(self, capsys):
        code, out, _ = run(capsys, "wahl", "--p", "2,3,3", "--max-degree", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["minors_zero"] and payload["dims_ok"]
        assert payload["degrees"] == {"v": 1, "u1": 3, "u2": 2, "u3": 3}

    def test_builds_the_presentation_once(self, capsys, monkeypatch):
        # the printed presentation is the one the checks run on
        argv = ["wahl", "--p", "2,3,4", "--max-degree", "6"]
        _, expected, _ = run(capsys, *argv)
        calls = []
        real = reconalg.wahl_generators
        monkeypatch.setattr(reconalg, "wahl_generators", lambda *a: calls.append(a) or real(*a))
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == expected
        assert len(calls) == 1


class TestDomestic:
    def test_exact_output(self, capsys):
        code, out, _ = run(capsys, "domestic", "--p", "2,3,4", "--m", "3")
        assert code == 0
        assert out.strip() == '{"group": "O_13", "h": 12, "pi_index": 13}'


class TestErrors:
    def test_domain_error_exits_one(self, capsys):
        code, out, _ = run(capsys, "domestic", "--p", "2,3,6", "--m", "3")
        assert code == 1
        payload = json.loads(out)
        assert payload["code"] == "precondition"
        assert "Dynkin" in payload["message"]

    @pytest.mark.parametrize("max_degree", ["30", "1000000000"])
    def test_too_many_wahl_words_exit_one_at_once(self, capsys, max_degree):
        # (2, 3, 4, 5) has 5,325 words of degree <= 30; the limit is 4,000
        start = time.perf_counter()
        code, out, _ = run(capsys, "wahl", "--p", "2,3,4,5", "--max-degree", max_degree)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert json.loads(out) == {
            "code": "precondition",
            "message": f"the words of degree <= {max_degree} number more than 4000",
        }

    def test_quiver_above_the_vertex_limit_exits_one_at_once(self, capsys):
        # a 10,003-vertex graph: both routes fill (V + 1)^2 matrices, so it is refused
        start = time.perf_counter()
        code, out, _ = run(capsys, "quiver", "--p", "10001,3", "--x", "1,1")
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert json.loads(out) == {
            "code": "precondition",
            "message": "the graph has 10003 vertices; quivers are limited to 4000",
        }

    def test_invalid_points_exit_one(self, capsys):
        code, out, _ = run(capsys, "graph", "--p", "2,3", "--lambda", "1:0,2:0", "--x", "1,1")
        assert code == 1
        assert json.loads(out)["code"] == "parameter"

    def test_parse_error_exits_two(self, capsys):
        code, _, err = run(capsys, "graph", "--p", "2,x", "--x", "1,1")
        assert code == 2
        assert "could not parse" in err

    @pytest.mark.parametrize("weights", ["3,,5,5", ",3", "3,"])
    def test_empty_field_exits_two(self, capsys, weights):
        code, out, err = run(capsys, "graph", "--p", weights, "--x", "2,2,3")
        assert code == 2 and out == ""
        assert f"could not parse --p {weights!r}" in err

    def test_empty_weights_mean_no_arms(self, capsys):
        code, out, _ = run(capsys, "graph", "--p", "", "--x", "2,2,3")
        assert code == 1
        assert json.loads(out)["message"] == "expected 0 coefficients, got 3"

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["wahl", "--p", "2,3,4", "--max-degree", "-5"], "--max-degree"),
            (["wahl", "--p", "2,3,4", "--max-degree", "0"], "--max-degree"),
            (["sweep", "--count", "0"], "--count"),
            (["sweep", "--count", "-1"], "--count"),
            (["sweep", "--rmax", "1"], "--rmax"),
            (["sweep", "--rmax", "1", "--count", "0"], "--rmax"),
        ],
    )
    def test_empty_check_range_exits_two(self, capsys, argv, option):
        # a check over zero cases must not pass vacuously
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert option in out.err and "at least" in out.err

    def test_non_integer_bound_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--count", "x"])
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err


class TestSweep:
    def test_small_run_green(self, capsys):
        code, out, _ = run(capsys, "sweep", "--rmax", "12", "--count", "6")
        assert code == 0
        assert "quiver: ok" in out

    def test_default_run_logs_every_check_in_order(self, capsys):
        code, out, _ = run(capsys, "sweep", "--seed", "0")
        assert code == 0
        assert out.splitlines() == [
            "iseries-triangle: ok",
            "center-label: ok",
            "cycles: ok",
            "quiver: ok",
            "parameter-reduction: ok",
            "speciality-oracle: ok",
        ]

    def test_counterexample_exits_one(self, capsys, monkeypatch):
        import starres.sweeps

        monkeypatch.setattr(starres.sweeps, "run_all", lambda **kw: {"check": "stub", "r": 5})
        code, out, _ = run(capsys, "sweep")
        assert code == 1
        assert json.loads(out) == {"check": "stub", "r": 5}
