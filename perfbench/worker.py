"""One workload process: set up, run checked cases, print one JSON line.

Started by run.py from the root of a checkout, with that checkout's ``src``
first on PYTHONPATH.  Modes:

* ``setup``: import starres, generate the first round's inputs, report the
  moment the first case would start, and exit.
* ``timed``: run whole rounds, one case at a time, with no tracing.  After
  the first round the number of rounds is fixed from its wall time so the
  run lasts about ``--seconds``, with at least 100 cases.  Every round has
  the same cost skeleton, so a run never ends on a partial mix of inputs.
  Reference slices between cases record the machine's speed.
* ``trace``: run the first round untraced, then the same round with every
  public function wrapped; check that both give the same outputs and that
  every wrapped name is restored, and report per-layer counts, self times
  and spans.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from fractions import Fraction

MIN_CASES = 100
# A reference slice runs between cases about every SLICE_EVERY_S seconds and
# measures the machine's speed during the run; run.py scales the timings by
# it.  SETUP_SLICES of them run right after set-up, to scale setup_s.
SLICE_EVERY_S = 0.25
SETUP_SLICES = 8


def monotonic() -> float:
    """CLOCK_MONOTONIC, which the parent process reads too."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def reference_slice() -> float:
    """Seconds taken by fixed Fraction, int and dict work, as the program does."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 500):
        acc += Fraction(i, i * i + 1)
    table = {}
    for i in range(6000):
        table[i % 211] = table.get(i % 211, 0) + i
    return time.perf_counter() - start


def run_cases(cases, run_case, tracer=None, slices=None):
    """Run cases in order; return (outputs, oks, per-case seconds, wall).

    With a ``slices`` list, reference slices run between cases and are
    appended to it; the wall excludes them.
    """
    outputs, oks, times = [], [], []
    clock = time.perf_counter
    start = last = clock()
    in_slices = 0.0
    for index, (kind, payload) in enumerate(cases):
        if tracer is not None:
            tracer.case = index
        t0 = clock()
        try:
            output, ok = run_case(kind, payload)
        except Exception as exc:  # a failing case is counted, not fatal
            output, ok = f"{type(exc).__name__}: {exc}", False
            traceback.print_exc(file=sys.stderr)
        times.append(clock() - t0)
        outputs.append(output)
        oks.append(bool(ok))
        if slices is not None and clock() - last >= SLICE_EVERY_S:
            t0 = clock()
            slices.append(reference_slice())
            last = clock()
            in_slices += last - t0
    return outputs, oks, times, clock() - start - in_slices


def timed(make_round, run_case, seed, seconds, first_round):
    times, failed, wall, skipped, rounds = [], 0, 0.0, 0, 0
    slices = [reference_slice()]
    target = None
    rnd = first_round
    while target is None or rounds < target:
        if rounds:
            rnd = make_round(seed, rounds)
        _, oks, case_times, round_wall = run_cases(rnd.cases, run_case, slices=slices)
        times += case_times
        failed += oks.count(False)
        wall += round_wall
        skipped += rnd.skipped
        rounds += 1
        if target is None:
            target = max(math.ceil(MIN_CASES / len(rnd.cases)), round(seconds / round_wall))
    ms = sorted(t * 1000.0 for t in times)
    return {
        "attempted": len(times),
        "failed": failed,
        "skipped": skipped,
        "rounds": rounds,
        "loop_s": wall,
        "slice_s": statistics.fmean(slices),
        "slices": len(slices),
        "case_ms_p50": statistics.median(ms),
        "case_ms_p90": statistics.quantiles(ms, n=10)[8],
        "peak_rss_mib": peak_rss_mib(),
    }


def _growth(spans):
    """Least-squares slope of log(mean inclusive time) on log(input size)."""
    by = defaultdict(lambda: defaultdict(list))
    for _case, _parent, name, start, end, size in spans:
        if size is None:
            continue
        measure = math.prod(size) if isinstance(size, tuple) else size
        if measure > 0:
            by[name][measure].append(end - start)
    out = {}
    for name, sizes in by.items():
        if len(sizes) < 3:
            continue
        xs = [math.log(s) for s in sizes]
        ys = [math.log(max(statistics.fmean(v), 1e-9)) for v in sizes.values()]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        sxx = sum((x - mx) ** 2 for x in xs)
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx if sxx else 0.0
        out[name] = {
            "exponent": slope,
            "sizes": [min(sizes), max(sizes)],
            "spans": sum(len(v) for v in sizes.values()),
        }
    return out


def traced(run_case, rnd, trace_out):
    from tracing import LAYERS, Tracer

    # untraced, traced, untraced again: the mean of the two untraced walls
    # cancels drift, so traced minus untraced is the tracing overhead
    out0, ok0, _, wall0 = run_cases(rnd.cases, run_case)
    tracer = Tracer()
    tracer.install()
    try:
        out1, ok1, _, wall1 = run_cases(rnd.cases, run_case, tracer)
    finally:
        left = tracer.restore()
    out2, ok2, _, wall2 = run_cases(rnd.cases, run_case)
    untraced = (wall0 + wall2) / 2
    failed = sum(
        1
        for case in zip(ok0, ok1, ok2, out0, out1, out2)
        if not (all(case[:3]) and case[3] == case[4] == case[5])
    )
    layers = {}
    for mod, fns in LAYERS.items():
        busy = 0.0
        for fn in fns:
            key = f"{mod}.{fn}"
            layers[f"{key}.calls"] = int(tracer.stats[key]["calls"])
            layers[f"{key}.self_s"] = tracer.stats[key]["self_s"]
            busy += tracer.stats[key]["self_s"]
        layers[f"{mod}.self_share"] = busy / wall1
    stats = tracer.stats

    def ratio(fn, num, den):
        return stats[fn][num] / stats[fn][den] if stats[fn][den] else 0.0

    for metric, fn, key in (
        ("linalg.rref.rows", "linalg.rref", "rows"),
        ("linalg.det.order_sum", "linalg.det", "order_sum"),
        ("resolution.speciality_oracle.levels", "resolution.speciality_oracle", "levels"),
        ("intersection.fundamental_cycle.increments", "intersection.fundamental_cycle", "increments"),
        ("intersection.fundamental_cycle_brute.box_points", "intersection.fundamental_cycle_brute", "box_points"),
        ("hj.ito_oracle.grid_cells", "hj.ito_oracle", "grid_cells"),
    ):
        layers[metric] = int(stats[fn][key])
    layers["linalg.rref.rank_per_row"] = ratio("linalg.rref", "rank", "rows")
    layers["resolution.speciality_oracle.nonspecial_ratio"] = ratio(
        "resolution.speciality_oracle", "nonspecial", "calls"
    )
    layers["sweeps.checked"] = len(rnd.cases)
    layers["sweeps.skipped"] = rnd.skipped
    layers["trace.overhead_s"] = wall1 - untraced
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "fields": ["case", "parent", "name", "start", "end", "size"],
                "spans": tracer.spans,
            },
            fh,
        )
    return {
        "attempted": len(rnd.cases),
        "failed": failed,
        "untraced_s": untraced,
        "traced_s": wall1,
        "spans": len(tracer.spans),
        "left_wrapped": left,
        "growth": _growth(tracer.spans),
        "layers": layers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--mode", choices=["setup", "timed", "trace"], required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    import starres

    src = os.path.join(os.getcwd(), "src", "")
    if not os.path.abspath(starres.__file__).startswith(src):
        print(f"error: starres imported from {starres.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    make_round, run_case = WORKLOADS[args.workload]
    first_round = make_round(args.seed, 0)
    if not first_round.cases:
        print(f"error: workload {args.workload} generated no cases", file=sys.stderr)
        return 1
    ready = monotonic()
    if args.mode == "setup":
        result = {}
    elif args.mode == "timed":
        result = timed(make_round, run_case, args.seed, args.seconds, first_round)
    else:
        if args.workload == "cli":
            # spans need the code in this process: run the subcommands in-process
            first_round.cases = [("inproc", name) for _, name in first_round.cases]
        result = traced(run_case, first_round, args.trace_out)
    result["ready"] = ready
    if args.mode != "trace":
        result["setup_slice_s"] = statistics.median(
            reference_slice() for _ in range(SETUP_SLICES)
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
