"""Command-line front end.

Subcommands: iseries, graph, specials, quiver, wahl, domestic, sweep.
Domain errors exit 1 with a {code, message} JSON object on stdout; argument
parse errors exit 2.  Output is deterministic byte-for-byte for fixed input
(JSON keys sorted, seeded randomness).

Each subcommand handler imports the modules it runs; of the package, only
``errors`` is imported at module level.  A CLI call is a cold interpreter that
compiles and executes every module it loads, and ``iseries`` needs ``hj``
alone.  The records are NamedTuples, not frozen data classes, so no call
imports ``inspect`` or executes generated methods per record class.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import StarresError


class ArgumentError(ValueError):
    """Raised for malformed option values; maps to exit code 2."""


def _parse_ints(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")] if text else []
    except ValueError as exc:
        raise ArgumentError(f"could not parse {what} {text!r}") from exc


def _at_least(low: int):
    """argparse type: an integer no smaller than low, so no check runs empty."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _parse_points(text: str) -> list[tuple[Fraction, Fraction]]:
    points = []
    for chunk in text.split(","):
        halves = chunk.split(":")
        if len(halves) != 2:
            raise ArgumentError(f"point {chunk!r} is not of the form u:w")
        try:
            points.append((Fraction(halves[0]), Fraction(halves[1])))
        except (ValueError, ZeroDivisionError) as exc:
            raise ArgumentError(f"could not parse point {chunk!r}") from exc
    return points


def _build_params(args):
    from .lgroup import Parameters, default_points

    weights = _parse_ints(args.p, "--p")
    if args.lam is None:
        points = None
    else:
        points = _parse_points(args.lam)
        points += list(default_points(len(weights)))[len(points):]
    return Parameters(weights, points)


def _build_element(params, args):
    from .lgroup import normal_form

    coeffs = _parse_ints(args.x, "--x") if args.x else [0] * params.n
    return normal_form(params, coeffs, args.c)


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _cmd_iseries(args) -> int:
    from .hj import hj_expand, i_series

    series = i_series(args.r, args.a)
    _emit(
        {
            "r": args.r,
            "a": args.a,
            "expansion": list(hj_expand(args.r, args.a).alphas),
            "series": list(series.terms),
            "set": sorted(series.as_set),
        }
    )
    return 0


def _graph_report(g, labels=None) -> dict:
    report = {"graph": g.to_json(), "minimal": "non-minimal" not in g.flags}
    if labels is not None:
        report["specials"] = [{"label": lab.display, "vertex": lab.vertex} for lab in labels]
    return report


def _cmd_graph(args) -> int:
    from .resolution import dual_graph, to_dot

    params = _build_params(args)
    x = _build_element(params, args)
    g = dual_graph(params, x)
    if args.format == "dot":
        print(to_dot(g))
    elif args.format == "text":
        minimal = "non-minimal" not in g.flags
        print(f"shape: {g.shape}  labels: {list(g.labels)}  minimal: {minimal}")
    else:
        _emit(_graph_report(g))
    return 0


def _cmd_specials(args) -> int:
    from .resolution import _specials_on, dual_graph, to_dot

    params = _build_params(args)
    x = _build_element(params, args)
    g = dual_graph(params, x)
    labels = _specials_on(params, x, g)
    if args.format == "dot":
        print(to_dot(g, labels))
    elif args.format == "text":
        for lab in labels:
            vertex = "-" if lab.vertex is None else lab.vertex
            print(f"{lab.display}\tvertex {vertex}")
    else:
        _emit(_graph_report(g, labels))
    return 0


def _cmd_quiver(args) -> int:
    from .reconalg import (
        _quiver_combinatorial_on,
        degree_zero_canonical,
        quiver_from_intersection,
        quiver_to_dot,
    )
    from .resolution import _specials_on, dual_graph

    params = _build_params(args)
    x = _build_element(params, args)
    g = dual_graph(params, x)
    if len(g.arms) >= 2:
        quiver = _quiver_combinatorial_on(params, x, g)
        degenerate = False
    else:
        quiver = quiver_from_intersection(g, _specials_on(params, x, g))
        degenerate = True
    if args.format == "dot":
        print(quiver_to_dot(quiver))
        return 0
    dz = degree_zero_canonical(params, g)
    report = quiver.to_json()
    report["degree_zero"] = {"q": list(dz.weights), "mu": [list(pt) for pt in dz.points]}
    if degenerate:
        report["degenerate"] = True
    _emit(report)
    return 0


def _cmd_wahl(args) -> int:
    from .reconalg import wahl_relations, wahl_special_ideals, wahl_verify

    report = wahl_verify(_build_params(args), args.max_degree)
    pres = report.presentation
    ideals = wahl_special_ideals(pres)
    rels = wahl_relations(pres)
    _emit(
        {
            "generators": {f"u{i + 1}": str(g) for i, g in enumerate(pres.gens)}
            | {"v": str(pres.v)},
            "degrees": {"v": 1}
            | {f"u{i + 1}": d for i, d in enumerate(pres.degrees)},
            "matrix": [list(row) for row in pres.matrix_symbolic],
            "minors_zero": not report.minor_failures,
            "dims_ok": not report.dim_failures,
            "dim_failures": [list(f) for f in report.dim_failures],
            "special_ideals": [[lab.display, ideal] for lab, ideal in ideals],
            "relations": list(rels.relations),
        }
    )
    return 0 if report.ok else 1


def _cmd_domestic(args) -> int:
    from .reconalg import domestic_classify

    params = _build_params(args)
    _emit(domestic_classify(params, args.m).to_json())
    return 0


def _cmd_sweep(args) -> int:
    from .sweeps import run_all

    counterexample = run_all(seed=args.seed, rmax=args.rmax, count=args.count, log=print)
    if counterexample is not None:
        _emit(counterexample)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starres",
        description="Combinatorial invariants of graded Veronese surface singularities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_iseries = sub.add_parser("iseries", help="continued fraction and value set of r/a")
    p_iseries.add_argument("r", type=int)
    p_iseries.add_argument("a", type=int)
    p_iseries.set_defaults(func=_cmd_iseries)

    def add_common(sp, with_x=True):
        sp.add_argument("--p", required=True, help="weights, e.g. 3,5,5")
        sp.add_argument("--lambda", dest="lam", default=None, help="points u:w, e.g. 1:0,0:1,1:1")
        if with_x:
            sp.add_argument("--x", default=None, help="arm coefficients, e.g. 2,2,3")
            sp.add_argument("--c", type=int, default=0, help="c coefficient")

    p_graph = sub.add_parser("graph", help="dual graph of the resolution")
    add_common(p_graph)
    p_graph.add_argument("--format", choices=["json", "dot", "text"], default="json")
    p_graph.set_defaults(func=_cmd_graph)

    p_specials = sub.add_parser("specials", help="special module classification")
    add_common(p_specials)
    p_specials.add_argument("--format", choices=["json", "dot", "text"], default="json")
    p_specials.set_defaults(func=_cmd_specials)

    p_quiver = sub.add_parser("quiver", help="arrow and relation counts")
    add_common(p_quiver)
    p_quiver.add_argument("--format", choices=["json", "dot"], default="json")
    p_quiver.set_defaults(func=_cmd_quiver)

    p_wahl = sub.add_parser("wahl", help="degree-one Veronese presentation and checks")
    add_common(p_wahl, with_x=False)
    p_wahl.add_argument("--max-degree", type=_at_least(1), default=12)
    p_wahl.set_defaults(func=_cmd_wahl)

    p_dom = sub.add_parser("domestic", help="Dynkin-triple classification")
    add_common(p_dom, with_x=False)
    p_dom.add_argument("--m", type=int, required=True)
    p_dom.set_defaults(func=_cmd_domestic)

    p_sweep = sub.add_parser("sweep", help="run all oracle cross-checks")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--rmax", type=_at_least(2), default=40)
    p_sweep.add_argument("--count", type=_at_least(1), default=50)
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StarresError as exc:
        _emit({"code": exc.code, "message": str(exc)})
        return 1


if __name__ == "__main__":
    sys.exit(main())
