"""Seeded cross-check sweeps pairing every classification with its oracle.

``CHECKS`` maps each sweep's name to (draw, check): ``draw(rng)`` returns one
input (params, x) with x outside [0, c], and ``check(params, x)`` returns None
or a JSON-serializable counterexample naming its ``"check"``.  ``sweep`` runs
one entry on ``count`` seeded draws; ``sweep_iseries`` is the one grid check.
A sweep asked to check nothing raises PreconditionError.
"""

from __future__ import annotations

import itertools
import random
from functools import partial
from math import gcd

from .errors import PreconditionError
from .gradedring import graded_basis, graded_dim, piece_product
from .hj import i_set, ito_oracle, residue_criterion
from .intersection import (
    canonical_cycle,
    fundamental_cycle,
    fundamental_cycle_brute,
    is_negative_definite,
    is_reduced,
    matrix_from_graph,
    pair,
)
from .lgroup import (
    LElement,
    Parameters,
    _support,
    c_element,
    generator,
    l_add,
    l_neg,
    l_scale,
    normal_form,
    reduce_parameters,
)
from .linalg import det, rref, solve
from .reconalg import quiver_combinatorial, quiver_from_intersection
from .resolution import OracleResult, _specials_on, dual_graph, speciality_oracle

AMAX = 3  # largest c coefficient random_element draws
BRUTE_MAX_SIZE = 8  # largest graph the cycle sweep also solves by brute force
REDUCE_DEGREES = 8  # the reduction sweep compares graded dimensions of k*x, k <= this


def random_element(rng: random.Random, nmax=4, pmax=6, coprime=False, min_v=0):
    """A random parameter set and positive element, in normal form."""
    while True:
        n = rng.randint(max(1, min_v), nmax)
        weights = [rng.randint(2, pmax) for _ in range(n)]
        arms = []
        for p in weights:
            if coprime:
                arms.append(rng.choice([a for a in range(1, p) if gcd(a, p) == 1]))
            else:
                arms.append(rng.randint(0, p - 1))
        a = rng.randint(0, AMAX)
        params = Parameters(weights)
        x = normal_form(params, arms, a)
        v = sum(1 for ai in x.arms if ai)
        if v < min_v:
            continue
        if v + a < 2:  # stay outside [0, c]
            continue
        return params, x


def _non_coprime(rng: random.Random):
    """A ``random_element`` draw with some nonzero arm not coprime to its weight."""
    while True:
        params, x = random_element(rng)
        if any(gcd(p, a) != 1 for p, a in zip(params.weights, x.arms) if a):
            return params, x


def _require_count(count: int) -> None:
    if count < 1:
        raise PreconditionError(f"count must be at least 1, got {count}")


def sweep_iseries(rmax: int = 40):
    """Triangle equality of the three characterizations of I(r, a)."""
    if rmax < 2:
        raise PreconditionError(f"rmax must be at least 2, got {rmax}")
    for r in range(2, rmax + 1):
        for a in range(1, r):
            if gcd(r, a) != 1:
                continue
            rec = i_set(r, a)
            grid = ito_oracle(r, a)
            res = frozenset(
                u for u in range(r) if residue_criterion(r, r - a, u)
            ) | {r}
            if not (rec == grid == res):
                return {
                    "check": "iseries-triangle",
                    "r": r,
                    "a": a,
                    "recursion": sorted(rec),
                    "grid": sorted(grid),
                    "residue": sorted(res),
                }
    return None


def _center_label(params: Parameters, x: LElement):
    """Center label equals -(a + v), with a re-derived as a graded dimension."""
    g = dual_graph(params, x)
    a = x.c_coeff
    shifted = l_add(x, l_neg(c_element(params)))
    a_indep = len(graded_basis(params, shifted).basis)
    expected = -(a + len(g.arms))
    if g.labels[g.center] != expected or a_indep != a:
        return {
            "check": "center-label",
            "label": g.labels[g.center],
            "expected": expected,
            "a_from_dimension": a_indep,
        }
    return None


def _minors_negative_definite(m) -> bool:
    """The dense route: leading principal minors alternate in sign."""
    return all(
        (-1) ** k * det([row[:k] for row in m.entries[:k]]) > 0 for k in range(1, m.size + 1)
    )


def _level_by_rank(params: Parameters, pairs, dim: int) -> bool:
    """Whether the products of the pieces in pairs fill their piece of
    dimension dim: their ``piece_product`` rows stacked, with one ``rref`` call.
    """
    rows = []
    for left, right in pairs:
        rows.extend(piece_product(params, left, right))
    return len(rref(rows)) == dim


def _levels(params: Parameters, x: LElement, y: LElement, l_max: int | None):
    """Yield (l, dim, pairs) for the levels ``speciality_oracle`` reads,
    l in [0, min(L0 - 1, l_max)], built from group elements.

    y is lowered as the oracle lowers it.  dim is the dimension of the piece
    of degree y + omega + l*x, and pairs lists the degrees
    (omega + m*x, y + (l - m)*x), m in [1, l], whose pieces are both
    nonempty: m = 1..l - k0 once k0 is found.  The oracle's docstring proves
    that every level from L0 = k0 + max(p) - 1 on passes.
    """
    minus_x = l_neg(x)
    while (lower := l_add(y, minus_x)).c_coeff >= 0:
        y = lower
    reach = max(params.weights, default=2) - 1
    lefts = [normal_form(params, [-1] * params.n, params.n - 2)]  # omega = (n - 2)c - sum x_i
    rights: list[LElement] = []  # rights[k] = y + k*x, added at level k + 1
    k0 = None
    for l in itertools.count() if l_max is None else range(l_max + 1):
        if l:
            lefts.append(l_add(lefts[-1], x))
            rights.append(l_add(rights[-1], x) if rights else y)
            if k0 is None and rights[-1].c_coeff >= 0:
                k0 = l - 1
        if k0 is not None and l >= k0 + reach:
            return
        top = lefts[l]
        dim = max(top.c_coeff + y.c_coeff + len(_support(top, y)) + 1, 0)
        pairs = [] if k0 is None else [(lefts[m], rights[l - m]) for m in range(1, l - k0 + 1)]
        yield l, dim, pairs


def _speciality_by_rank(
    params: Parameters, x: LElement, y: LElement, l_max: int | None = None
) -> OracleResult:
    """The oracle's answer with every level below L0 decided by ``_level_by_rank``.

    The second route to each verdict and witness; it skips the oracle's
    preconditions, so call it only on inputs the oracle accepts.
    """
    for l, dim, pairs in _levels(params, x, y, l_max):
        if not _level_by_rank(params, pairs, dim):
            return OracleResult(False, l)
    return OracleResult(True)


def _cycles(params: Parameters, x: LElement):
    """Fundamental cycle: reduced, Laufer = brute force, canonical system exact.

    Definiteness and the canonical cycle are computed twice, by the integer
    leaf-to-root pass and by the dense route (leading minors, a dense solve).
    Every draw lies outside [0, c], so a non-minimal graph is a broken draw.
    """
    g = dual_graph(params, x)
    if "non-minimal" in g.flags:
        return {"check": "non-minimal"}
    m = matrix_from_graph(g)
    definite = is_negative_definite(m)
    if definite != _minors_negative_definite(m):
        return {"check": "tree-vs-dense", "quantity": "negative-definite", "tree": definite}
    if not definite:
        return {"check": "negative-definite"}
    zf = fundamental_cycle(m)
    if not is_reduced(zf):
        return {"check": "reduced", "zf": list(zf)}
    if m.size <= BRUTE_MAX_SIZE and zf != fundamental_cycle_brute(m):
        return {"check": "laufer-vs-brute"}
    zk = canonical_cycle(m)
    dense = solve(m.entries, [m.entries[i][i] + 2 for i in range(m.size)])
    if zk != dense:
        return {
            "check": "tree-vs-dense",
            "quantity": "canonical-cycle",
            "tree": [str(z) for z in zk],
            "dense": [str(z) for z in dense],
        }
    for i in range(m.size):
        ei = tuple(1 if j == i else 0 for j in range(m.size))
        if pair(m, zk, ei) != m.entries[i][i] + 2:
            return {"check": "canonical-cycle"}
    return None


def _quiver(params: Parameters, x: LElement):
    """Cross-construction equality of the two quiver routes."""
    combin = quiver_combinatorial(params, x)
    g = dual_graph(params, x)
    inter = quiver_from_intersection(g, _specials_on(params, x, g))
    if combin != inter:
        return {
            "check": "quiver-cross-construction",
            "combinatorial": combin.to_json(),
            "intersection": inter.to_json(),
        }
    return None


def _reduction(params: Parameters, x: LElement):
    """Graded dimensions agree before and after parameter reduction."""
    rparams, rx = reduce_parameters(params, x)
    for k in range(REDUCE_DEGREES + 1):
        before = graded_dim(params, l_scale(k, x))
        after = graded_dim(rparams, l_scale(k, rx))
        if before != after:
            return {"check": "parameter-reduction", "degree": k, "before": before, "after": after}
    return None


def _speciality(params: Parameters, x: LElement):
    """Speciality oracle against the value-set classification on every
    shifted module S(u*x_j), 0 <= u <= p_j.

    Every level below the oracle's bound L0 is decided twice: by the
    oracle's residue walk and by ``_speciality_by_rank`` (the levels built
    as group elements, their products' shift rows stacked for one ``rref``).
    Both are proofs, so each verdict is also compared with u in I(p_j, p_j - a_j).
    """
    for j, p in enumerate(params.weights):
        values = i_set(p, p - x.arms[j])
        for u in range(p + 1):
            y = l_scale(u, generator(params, j))
            oracle = speciality_oracle(params, x, y)
            by_rank = _speciality_by_rank(params, x, y)
            verdict = {"arm": j, "u": u, "oracle": oracle.special, "witness": oracle.witness}
            if oracle != by_rank:
                return {
                    "check": "certificate-vs-rank",
                    **verdict,
                    "rank": by_rank.special,
                    "rank_witness": by_rank.witness,
                }
            if oracle.special != (u in values):
                return {"check": "speciality-oracle", **verdict, "classification": u in values}
    return None


# name -> (draw, check), in the order run_all runs them.  The quiver draw
# takes weights up to 200, so dual graphs reach hundreds of vertices.
CHECKS = {
    "center-label": (partial(random_element, coprime=True), _center_label),
    "cycles": (random_element, _cycles),
    "quiver": (partial(random_element, min_v=2, pmax=200), _quiver),
    "parameter-reduction": (_non_coprime, _reduction),
    "speciality-oracle": (partial(random_element, nmax=3, pmax=5, coprime=True), _speciality),
}


def sweep(name: str, count: int, seed: int = 0):
    """Run the check ``name`` of ``CHECKS`` on ``count`` seeded draws.

    Returns the first counterexample, with the input's "p" and "x", or None.
    """
    _require_count(count)
    draw, check = CHECKS[name]
    rng = random.Random(seed)
    for _ in range(count):
        params, x = draw(rng)
        found = check(params, x)
        if found is not None:
            return {"p": list(params.weights), "x": x.to_json(), **found}
    return None


def run_all(seed: int = 0, rmax: int = 40, count: int = 50, log=None):
    """Run every sweep; returns the first counterexample or None."""
    checks = [("iseries-triangle", partial(sweep_iseries, rmax))]
    checks += [(name, partial(sweep, name, count, seed)) for name in CHECKS]
    for name, check in checks:
        result = check()
        if log is not None:
            log(f"{name}: {'FAIL' if result else 'ok'}")
        if result:
            return result
    return None
