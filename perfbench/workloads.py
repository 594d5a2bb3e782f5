"""The four benchmark workloads: input generation and checked cases.

A workload is a function ``make_round(seed, r)`` returning a ``Round``: a
list of cases plus the count of drawn inputs a check could not use.  Every
round of one workload has the same cost skeleton (the same sizes and case
kinds), and the seed fills in the details: which inputs realise each size,
where the weights sit on P^1, and the case order.  Runs on
different seeds therefore do the same amount of work, so their figures are
comparable, while still feeding the program different inputs.

A case is a ``(kind, payload)`` pair; ``run_case`` executes it and returns
``(output, ok)``.  ``output`` is a plain value used to compare a traced run
with an untraced one; ``ok`` says whether the answer matched its oracle.

The program is only ever called through module attributes (``R.dual_graph``
rather than a name bound here), so the tracer can wrap every public function
by patching module namespaces.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from math import gcd

from starres import cli as C
from starres import gradedring as G
from starres import hj as H
from starres import intersection as I
from starres import lgroup as L
from starres import reconalg as Q
from starres import resolution as R
from starres import sweeps as S

HERE = os.path.dirname(os.path.abspath(__file__))
L_MAX = 8
WAHL_WEIGHTS = ([2, 3, 3], [2, 3, 4], [2, 3, 5], [3, 4, 5], [2, 3, 3, 4])
WAHL_DEGREE = 12


@dataclass
class Round:
    cases: list = field(default_factory=list)
    skipped: int = 0


def hj_length(r: int, a: int) -> int:
    """Number of terms of the negative-regular continued fraction of r/a."""
    n = 0
    while a:
        alpha = -(-r // a)
        r, a = a, alpha * a - r
        n += 1
    return n


def graph_size(weights, arms) -> int:
    """Vertices of the dual graph: the center plus one HJ chain per nonzero arm."""
    return 1 + sum(hj_length(p, p - a) for p, a in zip(weights, arms) if a)


def _rng(workload: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{r}")


# ---------------------------------------------------------------- span
#
# Why: the speciality oracle feeds tall, rank-deficient Fraction matrices
# from gradedring.piece_product into linalg.rref; that is where nearly all
# of the time goes, so a rank-kernel change must move this workload.

def _criterion9_skeleton(min_cases: int = 100):
    """(weights, arms, a) drawn as acceptance criterion 9 draws them (seed 9).

    Inputs are taken in order until the round holds ``min_cases`` oracle
    calls, so one round alone has enough samples for a 90th percentile.
    """
    rng = random.Random(9)
    out = [((3, 5, 5), (2, 2, 3), 0)]
    cases = 16
    while cases < min_cases:
        n = rng.randint(1, 3)
        weights = [rng.randint(2, 5) for _ in range(n)]
        arms = [rng.choice([a for a in range(1, p) if gcd(a, p) == 1]) for p in weights]
        a = rng.randint(0, 3)
        if n + a < 2:
            continue
        out.append((tuple(weights), tuple(arms), a))
        cases += sum(p + 1 for p in weights)
    return out


SPAN_SKELETON = _criterion9_skeleton()


def span_round(seed: int, r: int) -> Round:
    """The skeleton's inputs, each on the default points or their mirror image.

    Mirroring (u:w) -> (w:u) swaps t0 and t1, which keeps an input's cost
    within about 15%; moving a weight onto the point (1:1) instead changes it
    by up to 50%, and a run holds too few inputs to average that out.
    """
    rng = _rng("span", seed, r)
    cases = []
    for weights, arms, a in SPAN_SKELETON:
        points = L.default_points(len(weights))
        if rng.random() < 0.5:
            points = [(w, u) for u, w in points]
        params = L.Parameters(weights, points)
        x = L.normal_form(params, arms, a)
        for j, p in enumerate(weights):
            for u in range(p + 1):
                cases.append(("oracle", (params, x, j, u)))
    for weights in WAHL_WEIGHTS:
        # the presentation needs normalized points; swapping the first two
        # weights is the mirror image there
        w = list(weights)
        if rng.random() < 0.5:
            w[0], w[1] = w[1], w[0]
        cases.append(("wahl", L.Parameters(w)))
    rng.shuffle(cases)
    return Round(cases)


def _span_case(kind, payload):
    if kind == "wahl":
        report = Q.wahl_verify(payload, WAHL_DEGREE)
        out = (report.ok, report.minor_failures, report.dim_failures)
        return out, report.ok and not report.minor_failures and not report.dim_failures
    params, x, j, u = payload
    y = L.l_scale(u, L.generator(params, j))
    result = R.speciality_oracle(params, x, y, L_MAX)
    p = params.weights[j]
    expected = u in H.i_set(p, p - x.arms[j])
    ok = result.special == expected and (
        result.special or (result.witness is not None and 1 <= result.witness <= L_MAX)
    )
    return (result.special, result.witness), ok


# ------------------------------------------------------------- bigstar
#
# Why: both quiver routes on large stars.  The intersection route spends its
# time in dense det/solve (is_negative_definite takes k leading minors of a
# k x k matrix; fundamental_cycle repeats it; canonical_cycle solves), so the
# largest stars set the 90th percentile.  Here linalg is used for square
# solves, not rank counts.

# (vertices k, arms n, c coefficient) per slot, k spread evenly over 8..40.
# The center label -(c + n) changes the cost of the exact minors by up to
# 1.7x at a fixed k, so n and c are part of the skeleton; the seed picks the
# arm lengths and labels.
BIGSTAR_SLOTS = tuple((8 + (32 * i) // 49, 3 + i % 2, (i // 2) % 3) for i in range(50))


def _arm_for_length(rng: random.Random, length: int):
    """A weight p and arm coefficient a whose HJ chain has ``length`` vertices."""
    while True:
        p = rng.randint(length + 1, 2 * length + 1)
        choices = [a for a in range(1, p) if hj_length(p, p - a) == length]
        if choices:
            return p, rng.choice(choices)


def star_input(rng: random.Random, k: int, n: int, c: int):
    """A star-shaped input with n arms and exactly k dual-graph vertices."""
    cuts = sorted(rng.sample(range(1, k - 1), n - 1))
    lengths = [b - a for a, b in zip([0] + cuts, cuts + [k - 1])]
    weights, arms = zip(*(_arm_for_length(rng, length) for length in lengths))
    params = L.Parameters(weights)
    return params, L.normal_form(params, arms, c), n, k


def bigstar_round(seed: int, r: int) -> Round:
    rng = _rng("bigstar", seed, r)
    cases = [("star", star_input(rng, *slot)) for slot in BIGSTAR_SLOTS]
    rng.shuffle(cases)
    return Round(cases)


def _bigstar_case(kind, payload):
    params, x, n, k = payload
    g = R.dual_graph(params, x)
    labels = R.specials(params, x)
    combin = Q.quiver_combinatorial(params, x)
    inter = Q.quiver_from_intersection(g, labels)
    ok = combin == inter and g.size == k and len(g.arms) == n
    return json.dumps(inter.to_json(), sort_keys=True), ok


# --------------------------------------------------------------- sweep
#
# Why: the cross-checks of `starres sweep` (speciality aside), one case per
# input.  Many small inputs: the time goes to hj.ito_oracle and
# residue_criterion, the brute-force fundamental-cycle box, lgroup and
# per-call overhead, while the large-matrix kernels do little.  A kernel
# change that adds set-up cost per call shows here.

ISERIES_PER_R = 4
SWEEP_DRAWS = 20
# Brute-force cost grows as 4^V, so the number of cycle inputs per graph
# size is fixed; the seed picks which inputs fill each slot.
CYCLE_QUOTA = {1: 1, 2: 3, 3: 3, 4: 3, 5: 3, 6: 2, 7: 2, 8: 1, 9: 2}
BRUTE_MAX_SIZE = 8
REDUCE_DEGREES = 8


def sweep_round(seed: int, r: int) -> Round:
    rng = _rng("sweep", seed, r)
    rnd = Round()
    for rr in range(2, 41):
        coprime = [a for a in range(1, rr) if gcd(rr, a) == 1]
        for a in rng.sample(coprime, min(ISERIES_PER_R, len(coprime))):
            rnd.cases.append(("iseries", (rr, a)))
    for _ in range(SWEEP_DRAWS):
        rnd.cases.append(("center", S.random_element(rng, coprime=True)))
    quota = dict(CYCLE_QUOTA)
    while any(quota.values()):
        params, x = S.random_element(rng)
        if L.in_interval_0_c(x):
            rnd.skipped += 1
            continue
        size = min(graph_size(params.weights, x.arms), max(quota))
        if quota[size]:
            quota[size] -= 1
            rnd.cases.append(("cycles", (params, x)))
    for _ in range(SWEEP_DRAWS):
        params, x = S.random_element(rng)
        if sum(1 for a in x.arms if a) < 2:
            rnd.skipped += 1
            continue
        rnd.cases.append(("quiver", (params, x)))
    found = 0
    while found < SWEEP_DRAWS:
        params, x = S.random_element(rng)
        if all(gcd(p, a) == 1 for p, a in zip(params.weights, x.arms) if a):
            continue
        found += 1
        rnd.cases.append(("reduce", (params, x)))
    rng.shuffle(rnd.cases)
    return rnd


def _sweep_case(kind, payload):
    if kind == "iseries":
        rr, a = payload
        rec = H.i_set(rr, a)
        grid = H.ito_oracle(rr, a)
        res = frozenset(u for u in range(rr) if H.residue_criterion(rr, rr - a, u)) | {rr}
        return sorted(rec), rec == grid == res
    params, x = payload
    if kind == "center":
        g = R.dual_graph(params, x)
        a = x.c_coeff
        shifted = L.l_add(x, L.l_neg(L.c_element(params)))
        dim = len(G.graded_basis(params, shifted).basis)
        label = g.labels[g.center]
        return (label, dim), label == -(a + len(g.arms)) and dim == a
    if kind == "cycles":
        m = I.matrix_from_graph(R.dual_graph(params, x))
        definite = I.is_negative_definite(m)
        zf = I.fundamental_cycle(m)
        ok = definite and I.is_reduced(zf)
        if m.size <= BRUTE_MAX_SIZE:
            ok = ok and zf == I.fundamental_cycle_brute(m)
        zk = I.canonical_cycle(m)
        for i in range(m.size):
            ei = tuple(1 if j == i else 0 for j in range(m.size))
            ok = ok and I.pair(m, zk, ei) == m.entries[i][i] + 2
        return (zf, tuple(str(c) for c in zk)), ok
    if kind == "quiver":
        combin = Q.quiver_combinatorial(params, x)
        inter = Q.quiver_from_intersection(R.dual_graph(params, x), R.specials(params, x))
        return json.dumps(inter.to_json(), sort_keys=True), combin == inter
    rparams, rx = L.reduce_parameters(params, x)
    dims = []
    ok = True
    for k in range(REDUCE_DEGREES + 1):
        before = G.graded_dim(params, L.l_scale(k, x))
        after = G.graded_dim(rparams, L.l_scale(k, rx))
        dims.append(before)
        ok = ok and before == after
    return tuple(dims), ok


# ----------------------------------------------------------------- cli
#
# Why: the only workload where interpreter start and import dominate, and
# the only one that runs cli, wahl_relations, degree_zero_canonical and
# domestic_classify.  Each case is a cold spawn of `python -m starres.cli`
# whose stdout must match, byte for byte, the output recorded in
# cli_golden.json.

with open(os.path.join(HERE, "cli_golden.json"), encoding="utf-8") as fh:
    CLI_GOLDEN = json.load(fh)


def cli_round(seed: int, r: int) -> Round:
    names = sorted(CLI_GOLDEN)
    _rng("cli", seed, r).shuffle(names)
    return Round([("spawn", name) for name in names])


def _cli_case(kind, name):
    golden = CLI_GOLDEN[name]
    if kind == "spawn":
        # the spawn inherits PYTHONPATH, which puts the checkout's src first
        proc = subprocess.run(
            [sys.executable, "-m", "starres.cli", *golden["argv"]],
            capture_output=True,
            timeout=60,
        )
        stdout, code = proc.stdout.decode("utf-8"), proc.returncode
    else:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = C.main(golden["argv"])
        stdout = buf.getvalue()
    return stdout, code == 0 and stdout == golden["stdout"]


WORKLOADS = {
    "span": (span_round, _span_case),
    "bigstar": (bigstar_round, _bigstar_case),
    "sweep": (sweep_round, _sweep_case),
    "cli": (cli_round, _cli_case),
}
