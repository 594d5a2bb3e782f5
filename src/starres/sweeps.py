"""Seeded cross-check sweeps pairing every classification with its oracle.

Each sweep returns None on success or a JSON-serializable counterexample
dict; the CLI turns the first counterexample into a nonzero exit.  A sweep
asked to check nothing raises PreconditionError, and one whose every draw
was skipped returns a counterexample: a check over zero cases has failed.
"""

from __future__ import annotations

import random
from math import gcd

from .errors import PreconditionError
from .gradedring import _product_rows, graded_basis, graded_dim
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
from .resolution import OracleResult, _levels, _specials_on, dual_graph, speciality_oracle

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


def sweep_center_label(count: int = 100, seed: int = 0):
    """Center label equals -(a + v), with a re-derived as a graded dimension."""
    _require_count(count)
    rng = random.Random(seed)
    for _ in range(count):
        params, x = random_element(rng, coprime=True)
        g = dual_graph(params, x)
        v = len(g.arms)
        a = x.c_coeff
        shifted = l_add(x, l_neg(c_element(params)))
        a_indep = len(graded_basis(params, shifted).basis)
        expected = -(a + v)
        if g.labels[g.center] != expected or a_indep != a:
            return {
                "check": "center-label",
                "p": list(params.weights),
                "x": x.to_json(),
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
    dimension dim: their integer shift rows stacked, with one ``rref`` call.
    """
    rows = []
    for left, right in pairs:
        rows.extend(_product_rows(params, left, right))
    return len(rref(rows)) == dim


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


def sweep_cycles(count: int = 100, seed: int = 0):
    """Fundamental cycle: reduced, Laufer = brute force, canonical system exact.

    Definiteness and the canonical cycle are computed twice, by the integer
    leaf-to-root pass and by the dense route (leading minors, a dense solve).
    """
    _require_count(count)
    rng = random.Random(seed)
    checked = 0
    for _ in range(count):
        params, x = random_element(rng)
        g = dual_graph(params, x)
        if "non-minimal" in g.flags:
            continue
        checked += 1
        where = {"p": list(params.weights), "x": x.to_json()}
        m = matrix_from_graph(g)
        definite = is_negative_definite(m)
        if definite != _minors_negative_definite(m):
            return {"check": "tree-vs-dense", "quantity": "negative-definite", **where, "tree": definite}
        if not definite:
            return {"check": "negative-definite", **where}
        zf = fundamental_cycle(m)
        if not is_reduced(zf):
            return {"check": "reduced", **where, "zf": list(zf)}
        if m.size <= BRUTE_MAX_SIZE and zf != fundamental_cycle_brute(m):
            return {"check": "laufer-vs-brute", **where}
        zk = canonical_cycle(m)
        dense = solve(m.entries, [m.entries[i][i] + 2 for i in range(m.size)])
        if zk != dense:
            return {
                "check": "tree-vs-dense",
                "quantity": "canonical-cycle",
                **where,
                "tree": [str(z) for z in zk],
                "dense": [str(z) for z in dense],
            }
        for i in range(m.size):
            ei = tuple(1 if j == i else 0 for j in range(m.size))
            if pair(m, zk, ei) != m.entries[i][i] + 2:
                return {"check": "canonical-cycle", **where}
    if not checked:
        return {"check": "cycles-none-checked", "count": count, "seed": seed}
    return None


def sweep_quiver(count: int = 50, seed: int = 0):
    """Cross-construction equality of the two quiver routes.

    Weights are drawn up to 200, so dual graphs reach hundreds of vertices.
    """
    _require_count(count)
    rng = random.Random(seed)
    for _ in range(count):
        params, x = random_element(rng, min_v=2, pmax=200)
        combin = quiver_combinatorial(params, x)
        g = dual_graph(params, x)
        inter = quiver_from_intersection(g, _specials_on(params, x, g))
        if combin != inter:
            return {
                "check": "quiver-cross-construction",
                "p": list(params.weights),
                "x": x.to_json(),
                "combinatorial": combin.to_json(),
                "intersection": inter.to_json(),
            }
    return None


def sweep_reduce(count: int = 20, seed: int = 0):
    """Graded dimensions agree before and after parameter reduction."""
    _require_count(count)
    rng = random.Random(seed)
    found = 0
    while found < count:
        params, x = random_element(rng)
        if all(gcd(p, a) == 1 for p, a in zip(params.weights, x.arms) if a):
            continue
        found += 1
        rparams, rx = reduce_parameters(params, x)
        for k in range(REDUCE_DEGREES + 1):
            before = graded_dim(params, l_scale(k, x))
            after = graded_dim(rparams, l_scale(k, rx))
            if before != after:
                return {
                    "check": "parameter-reduction",
                    "p": list(params.weights),
                    "x": x.to_json(),
                    "degree": k,
                    "before": before,
                    "after": after,
                }
    return None


def _speciality_verdicts(count: int, seed: int):
    """Yield (where, oracle, by_rank, classified) for every shifted module
    S(u*x_j), 0 <= u <= p_j, of ``count`` seeded inputs.

    ``oracle`` is ``speciality_oracle``'s answer, ``by_rank`` the same levels
    decided by rank alone, and ``classified`` whether u lies in the value set
    I(p_j, p_j - a_j).
    """
    rng = random.Random(seed)
    for _ in range(count):
        params, x = random_element(rng, nmax=3, pmax=5, coprime=True)
        for j, p in enumerate(params.weights):
            values = i_set(p, p - x.arms[j])
            for u in range(p + 1):
                y = l_scale(u, generator(params, j))
                where = {"p": list(params.weights), "x": x.to_json(), "arm": j, "u": u}
                yield (
                    where,
                    speciality_oracle(params, x, y),
                    _speciality_by_rank(params, x, y),
                    u in values,
                )


def sweep_speciality(count: int = 3, seed: int = 0):
    """Subspace oracle against the value-set classification, small grid.

    Every level below the oracle's bound L0 is decided twice: by the
    oracle's common-point rule on the product supports, and by stacking the
    products' shift rows for one ``rref`` (``_speciality_by_rank``).  Both
    verdicts are proofs, so every module is compared with the
    classification.
    """
    _require_count(count)
    for where, oracle, by_rank, classified in _speciality_verdicts(count, seed):
        if oracle != by_rank:
            return {
                "check": "certificate-vs-rank",
                **where,
                "oracle": oracle.special,
                "witness": oracle.witness,
                "rank": by_rank.special,
                "rank_witness": by_rank.witness,
            }
        if oracle.special != classified:
            return {
                "check": "speciality-oracle",
                **where,
                "oracle": oracle.special,
                "witness": oracle.witness,
                "classification": classified,
            }
    return None


def run_all(seed: int = 0, rmax: int = 40, count: int = 50, log=None):
    """Run every sweep; returns the first counterexample or None."""
    checks = [
        ("iseries-triangle", lambda: sweep_iseries(rmax)),
        ("center-label", lambda: sweep_center_label(count, seed)),
        ("cycles", lambda: sweep_cycles(count, seed)),
        ("quiver", lambda: sweep_quiver(count, seed)),
        ("parameter-reduction", lambda: sweep_reduce(min(count, 20), seed)),
        ("speciality-oracle", lambda: sweep_speciality(3, seed)),
    ]
    for name, check in checks:
        result = check()
        if log is not None:
            log(f"{name}: {'FAIL' if result else 'ok'}")
        if result:
            return result
    return None
