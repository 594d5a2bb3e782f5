"""Dual graphs, minimality, blow-downs, special modules, and the oracle."""

import itertools
import math
import random
import sys

import pytest

from starres import linalg, resolution
from starres.errors import NotMinimalError, PreconditionError
from starres.gradedring import graded_dim
from starres.hj import hj_expand, i_set
from starres.lgroup import (
    LElement,
    Parameters,
    _support,
    c_element,
    canonical_point,
    degree_hom,
    generator,
    l_add,
    l_scale,
    normal_form,
    reduce_parameters,
    special_elements,
    zero,
)
from starres.resolution import (
    OracleResult,
    blow_down_chain,
    dual_graph,
    graph_from_json,
    is_minimal,
    make_star,
    specials,
    speciality_oracle,
    to_dot,
)
from starres.sweeps import _level_by_rank, _speciality_by_rank, random_element


P355 = Parameters([3, 5, 5])
X355 = normal_form(P355, [2, 2, 3], 0)


class TestDualGraph:
    def test_example_star(self):
        g = dual_graph(P355, X355)
        assert g.shape == "star"
        assert g.labels[g.center] == -3
        arm_labels = [tuple(g.labels[i] for i in arm) for arm in g.arms]
        assert arm_labels == [(-3,), (-2, -3), (-3, -2)]
        assert g.flags == ()

    def test_shifted_sum_graphs(self):
        # x = sum(x_i) + k*c: center -(n+k), arm i has p_i - 1 vertices, all -2
        for weights in ([2, 3, 3], [2, 3, 4], [3, 4, 5, 5]):
            params = Parameters(weights)
            sp = special_elements(params)
            for k in range(3):
                g = dual_graph(params, sp.s_a(k))
                assert g.labels[g.center] == -(len(weights) + k)
                for arm, p in zip(g.arms, weights):
                    assert len(arm) == p - 1
                    assert all(g.labels[i] == -2 for i in arm)

    def test_no_arms(self):
        params = Parameters([2, 3, 3])
        g = dual_graph(params, l_scale(3, c_element(params)))
        assert g.shape == "point"
        assert g.labels == (-3,)
        assert g.edges == ()

    def test_single_arm_chain(self):
        params = Parameters([2, 3, 3])
        g = dual_graph(params, normal_form(params, [0, 2, 0], 1))
        assert g.shape == "chain"
        assert g.labels == (-2, -3)

    def test_non_minimal_flagged(self):
        g = dual_graph(P355, l_scale(2, generator(P355, 0)))
        assert g.labels == (-1, -3)
        assert "non-minimal" in g.flags

    def test_zero_rejected(self):
        with pytest.raises(PreconditionError):
            dual_graph(P355, zero(P355))

    def test_negative_rejected(self):
        params = Parameters([2, 3])
        with pytest.raises(PreconditionError):
            dual_graph(params, special_elements(params).omega)

    def test_arm_labels_are_expansions(self):
        rng = random.Random(14)
        for _ in range(40):
            weights = [rng.randint(2, 6) for _ in range(rng.randint(1, 4))]
            params = Parameters(weights)
            x = normal_form(
                params, [rng.randrange(p) for p in weights], rng.randint(0, 3)
            )
            if x.c_coeff == 0 and not any(x.arms):
                continue
            g = dual_graph(params, x)
            for arm, src in zip(g.arms, g.arm_sources):
                p, a = weights[src], x.arms[src]
                expected = tuple(-q for q in hj_expand(p, p - a).alphas)
                assert tuple(g.labels[i] for i in arm) == expected

    def test_reduction_preserves_graph(self):
        cases = [([2, 4], [0, 2], 1), ([4, 6, 5], [2, 3, 2], 1), ([6, 4], [4, 2], 2)]
        for weights, arms, c in cases:
            params = Parameters(weights)
            x = normal_form(params, arms, c)
            rparams, rx = reduce_parameters(params, x)
            g1, g2 = dual_graph(params, x), dual_graph(rparams, rx)
            assert (g1.labels, g1.edges, g1.shape) == (g2.labels, g2.edges, g2.shape)

    def test_json_round_trip(self):
        g = dual_graph(P355, X355)
        assert graph_from_json(g.to_json()) == g


class TestMinimality:
    def test_interval_cases(self):
        assert not is_minimal(P355, l_scale(2, generator(P355, 0)))
        assert not is_minimal(P355, c_element(P355))
        assert is_minimal(P355, X355)


class TestBlowDown:
    def test_one_contraction(self):
        g = make_star(-1, [[-3]])
        assert blow_down_chain(g).labels == (-2,)

    def test_cascade_to_exceptional_free(self):
        g = make_star(-2, [[-1, -3]])
        out = blow_down_chain(g)
        assert out.labels == (-1,)
        assert "exceptional-free" in out.flags

    def test_fixed_point(self):
        g = make_star(-2, [[-3, -2]])
        assert blow_down_chain(g).labels == (-2, -3, -2)

    def test_star_rejected(self):
        with pytest.raises(PreconditionError):
            blow_down_chain(dual_graph(P355, X355))


class TestSpecials:
    def test_example_full_list(self):
        labels = specials(P355, X355)
        assert [l.display for l in labels] == [
            "R",
            "S(c)",
            "S(x1)",
            "S(3x2)",
            "S(x2)",
            "S(2x3)",
            "S(x3)",
        ]
        g = dual_graph(P355, X355)
        assert labels[0].vertex is None
        assert labels[1].vertex == g.center
        # arm 2 (p = 5, a = 2): u = 3 sits next to the center, u = 1 outside
        arm2 = g.arms[1]
        by_vertex = {l.vertex: l for l in labels if l.vertex is not None}
        assert (by_vertex[arm2[0]].u, by_vertex[arm2[1]].u) == (3, 1)

    def test_shifted_sum_every_u(self):
        params = Parameters([2, 3, 4])
        sp = special_elements(params)
        labels = specials(params, sp.s_a(1))
        for j, p in enumerate(params.weights):
            us = sorted(l.u for l in labels if l.kind == "arm" and l.arm == j)
            assert us == list(range(1, p))

    def test_single_arm(self):
        params = Parameters([2, 3, 3])
        labels = specials(params, normal_form(params, [0, 2, 0], 1))
        arm = [l for l in labels if l.kind == "arm"]
        assert len(arm) == 1 and arm[0].display == "S(x2)"
        assert i_set(3, 1) == {0, 1, 3}

    def test_count_matches_vertices(self):
        rng = random.Random(15)
        for _ in range(40):
            weights = [rng.randint(2, 6) for _ in range(rng.randint(1, 4))]
            params = Parameters(weights)
            x = normal_form(
                params, [rng.randrange(p) for p in weights], rng.randint(0, 3)
            )
            v = sum(1 for a in x.arms if a)
            if v + x.c_coeff < 2:
                continue
            g = dual_graph(params, x)
            labels = specials(params, x)
            assert len(labels) - 1 == g.size
            vertices = [l.vertex for l in labels if l.vertex is not None]
            assert sorted(vertices) == list(range(g.size))

    def test_rejects_interval(self):
        with pytest.raises(NotMinimalError):
            specials(P355, l_scale(2, generator(P355, 0)))


class TestOracle:
    def test_example_positive(self):
        x2 = generator(P355, 1)
        assert speciality_oracle(P355, X355, x2, 8).special

    def test_example_negative_with_witness(self):
        res = speciality_oracle(P355, X355, l_scale(2, generator(P355, 1)), 8)
        assert not res.special
        assert res.witness is not None and 1 <= res.witness <= 8

    def test_c_always_special(self):
        for weights, arms, c in [([3, 5, 5], [2, 2, 3], 0), ([2, 3], [1, 1], 1)]:
            params = Parameters(weights)
            x = normal_form(params, arms, c)
            assert speciality_oracle(params, x, c_element(params), 8).special

    def test_matches_value_sets(self):
        params = Parameters([2, 5])
        x = normal_form(params, [1, 2], 1)
        for j, p in enumerate(params.weights):
            values = i_set(p, p - x.arms[j])
            for u in range(p + 1):
                y = l_scale(u, generator(params, j))
                res = speciality_oracle(params, x, y, 8)
                assert res.special == (u in values), (j, u)

    def test_all_shifts_special_on_unit_arms(self):
        # x = sum(x_i) + a*c: every shift u*x_j, 0 <= u <= p_j, is special
        params = Parameters([2, 3])
        x = special_elements(params).s_a(1)
        for j, p in enumerate(params.weights):
            for u in range(p + 1):
                y = l_scale(u, generator(params, j))
                assert speciality_oracle(params, x, y, 8).special, (j, u)

    def test_requires_coprime(self):
        params = Parameters([2, 4])
        x = normal_form(params, [0, 2], 1)
        with pytest.raises(PreconditionError):
            speciality_oracle(params, x, c_element(params), 8)

    def test_requires_minimal(self):
        with pytest.raises(NotMinimalError):
            speciality_oracle(P355, c_element(P355), c_element(P355), 8)

    @pytest.mark.parametrize("l_max", [0, -3])
    def test_empty_level_range_rejected(self, l_max):
        with pytest.raises(PreconditionError):
            speciality_oracle(P355, X355, generator(P355, 1), l_max)

    def test_decides_criterion9_modules(self):
        # uncapped, every verdict is a proof and matches the value sets
        seen = set()
        for params, x, y, classified in _criterion9_modules(20):
            result = speciality_oracle(params, x, y)
            assert result.special == classified, (params.weights, x, y)
            assert result.special or result.witness < _level_bound(params, x, y)
            seen.add(classified)
        assert seen == {True, False}

    @pytest.mark.parametrize("c, bound", [(0, 1), (-2, 2)])
    def test_no_weights(self, c, bound):
        # n = 0: max(p) is read as 1, so L0 = k0 + 1
        params = Parameters([])
        x, y = LElement((), (), 3), LElement((), (), c)
        assert speciality_oracle(params, x, y) == OracleResult(True)
        assert _level_bound(params, x, y) == bound

    def test_verdict_ignores_the_representative(self):
        # p = (2), x = x1 + 2c: S(2c) = S(2c - x), a class that specials omits;
        # 2c's piece starts the module, so witness 0: S(2c + omega) != 0
        params = Parameters([2])
        x = normal_form(params, [1], 2)
        y = l_scale(2, c_element(params))
        assert speciality_oracle(params, x, y) == OracleResult(False, 0)
        assert speciality_oracle(params, x, l_add(y, l_scale(-1, x))) == OracleResult(False, 1)
        assert speciality_oracle(params, x, l_add(y, x)) == OracleResult(False, 0)

    def test_one_verdict_per_class(self):
        # every degree with arms in [0, p) and a small c, at five representatives
        # y + s*x: one verdict, special exactly on the classes specials lists
        checked = 0
        for params, x in _small_inputs(nmax=2, pmax=4, amax=2):
            listed = [_module_degree(params, lab) for lab in specials(params, x)]
            for arms in itertools.product(*[range(p) for p in params.weights]):
                for b in range(-3, 3):
                    y = LElement(params.weights, arms, b)
                    verdicts = {
                        speciality_oracle(params, x, l_add(y, l_scale(s, x))).special
                        for s in range(-2, 3)
                    }
                    listed_here = any(_same_class(x, y, z) for z in listed)
                    assert verdicts == {listed_here}, (params.weights, x, y)
                    checked += 1
        assert checked > 3000


def _small_inputs(nmax, pmax, amax):
    """Every coprime minimal x = sum(a_i x_i) + a*c with n <= nmax, p_i <= pmax, a <= amax."""
    for n in range(1, nmax + 1):
        for weights in itertools.combinations_with_replacement(range(2, pmax + 1), n):
            params = Parameters(list(weights))
            units = [[a for a in range(1, p) if math.gcd(a, p) == 1] for p in weights]
            for arms in itertools.product(*units):
                for a in range(amax + 1):
                    x = normal_form(params, list(arms), a)
                    if is_minimal(params, x):
                        yield params, x


def _module_degree(params, label):
    if label.kind == "free":
        return zero(params)
    if label.kind == "c":
        return c_element(params)
    return l_scale(label.u, generator(params, label.arm))


def _same_class(x, y, z):
    """Whether y - z is a multiple of x."""
    diff = l_add(y, l_scale(-1, z))
    k, r = divmod(degree_hom(diff), degree_hom(x))
    return r == 0 and l_scale(k, x) == diff


def _level_bound(params, x, y):
    """L0: the uncapped oracle checks the levels 0 .. L0 - 1."""
    return len(list(resolution._levels(params, x, y, None)))


def _lowered(params, x, y):
    """The representative of y + Zx at which S(y) starts, by the group law alone."""
    while graded_dim(params, l_add(y, l_scale(-1, x))):
        y = l_add(y, l_scale(-1, x))
    return y


class TestLevelBound:
    def test_levels_stop_at_bound(self):
        # the levels read are exactly 0 .. k0 + max(p) - 1, k0 the least k >= 0
        # at which the lowered y plus k*x has a nonzero piece
        rng = random.Random(19)
        for _ in range(60):
            params, x = random_element(rng, nmax=4, pmax=7, coprime=True)
            y = normal_form(params, [rng.randrange(p) for p in params.weights], rng.randint(-6, 4))
            low = _lowered(params, x, y)
            k0 = next(k for k in itertools.count() if graded_dim(params, l_add(low, l_scale(k, x))))
            levels = [l for l, _, _ in resolution._levels(params, x, y, None)]
            assert levels == list(range(k0 + max(params.weights))), (params, x, y)

    def test_levels_from_bound_pass_by_rank(self):
        # the tail argument computed twice: each level past L0 is rebuilt from
        # the group law alone and filled by rank, through a whole period of x
        rng = random.Random(17)
        for _ in range(10):
            params, x = random_element(rng, nmax=3, pmax=4, coprime=True)
            omega = special_elements(params).omega
            j = rng.randrange(params.n)
            pj = params.weights[j]
            shifts = [l_scale(u, generator(params, j)) for u in range(-pj, pj + 1)]
            shifts += [  # any degree, below 0 included
                normal_form(params, [rng.randrange(p) for p in params.weights], rng.randint(-3, 1))
                for _ in range(3)
            ]
            for y in shifts:
                start = _level_bound(params, x, y)
                y = _lowered(params, x, y)
                stop = start + math.lcm(*params.weights) + max(params.weights)
                for l in range(start, stop + 1):
                    pairs = [
                        (l_add(omega, l_scale(m, x)), l_add(y, l_scale(l - m, x)))
                        for m in range(1, l + 1)
                    ]
                    pairs = [(a, b) for a, b in pairs if graded_dim(params, a) and graded_dim(params, b)]
                    dim = graded_dim(params, l_add(y, l_add(omega, l_scale(l, x))))
                    assert _level_by_rank(params, pairs, dim), (params.weights, x, y, l)


def _pair(weights, arms, c_left, c_right=0):
    """Degrees with equal arms, so the product's support is {i : 2*arms[i] >= p_i}."""
    weights, arms = tuple(weights), tuple(arms)
    return LElement(weights, arms, c_left), LElement(weights, arms, c_right)


class TestLevelDecision:
    def test_disjoint_pair_boundary(self):
        # l0*l1*S_1 + l2*l3*S_1 fills S_3, while l0*l1 and l2*l3 alone miss S_2
        params = Parameters([2, 2, 2, 2])
        w = (2, 2, 2, 2)
        assert _level_by_rank(params, [_pair(w, (1, 1, 0, 0), 1), _pair(w, (0, 0, 1, 1), 1)], 4)
        assert not _level_by_rank(params, [_pair(w, (1, 1, 0, 0), 0), _pair(w, (0, 0, 1, 1), 0)], 3)

    def test_triangle_of_quadrics(self):
        # l0*l1, l1*l2, l0*l2 fill S_2 on any three points; two of them do not
        pairs = [
            _pair((2, 2, 2), (1, 1, 0), 0),
            _pair((2, 2, 2), (0, 1, 1), 0),
            _pair((2, 2, 2), (1, 0, 1), 0),
        ]
        for points in (None, [(1, 2), (3, -1), (2, 5)]):
            assert _level_by_rank(Parameters([2, 2, 2], points), pairs, 3) is True
            assert _level_by_rank(Parameters([2, 2, 2], points), pairs[:2], 3) is False

    def test_hand_built_fallback(self):
        # three chords l0*l1, l2*l3, l4*l5 of a conic in S_2: no point is common,
        # yet rank shows the answer depends on the points; the oracle's own
        # levels never look like this (six points exceed dim = 3)
        w = (2,) * 6
        pairs = [
            _pair(w, (1, 1, 0, 0, 0, 0), 0),
            _pair(w, (0, 0, 1, 1, 0, 0), 0),
            _pair(w, (0, 0, 0, 0, 1, 1), 0),
        ]
        assert _level_by_rank(Parameters([2] * 6), pairs, 3) is True
        # each pair {u, -u}: every product is a multiple of t0^2 - u^2 t1^2
        concurrent = [(1, 1), (1, -1), (1, 2), (1, -2), (1, 3), (1, -3)]
        assert _level_by_rank(Parameters([2] * 6, concurrent), pairs, 3) is False

    def test_random_levels_decided_by_a_common_point(self):
        # arbitrary degrees y and random points: every level with pairs has
        # dim >= n + a - 1 + |Q_1|, and fills by rank iff no point lies in
        # every support; a level without pairs fills iff dim = 0
        rng = random.Random(13)
        with_pairs, a_zero = 0, 0
        for _ in range(120):
            params, x = random_element(rng, nmax=5, pmax=9, coprime=True)
            params = Parameters(params.weights, _random_points(rng, params.n))
            x = normal_form(params, x.arms, x.c_coeff)
            y = normal_form(params, [rng.randrange(p) for p in params.weights], rng.randint(-6, 4))
            for l, dim, pairs in resolution._levels(params, x, y, None):
                if pairs:
                    supports = [set(_support(a, b)) for a, b in pairs]
                    assert dim >= params.n + x.c_coeff - 1 + len(supports[0]), (params, x, y, l)
                    fills = not set.intersection(*supports)
                    with_pairs += 1
                    a_zero += x.c_coeff == 0
                else:
                    fills = dim == 0
                assert fills == _level_by_rank(params, pairs, dim), (params, x, y, l)
        assert with_pairs > 300 and a_zero > 50


def _random_points(rng, n):
    points = []
    while len(points) < n:
        u, w = rng.randint(-4, 4), rng.randint(-4, 4)
        if (u, w) == (0, 0):
            continue
        pt = canonical_point(u, w)
        if all(pt[0] * q[1] != pt[1] * q[0] for q in points):
            points.append(pt)
    return points


def _criterion9_modules(count):
    """The worked example and the first ``count`` seeded inputs of acceptance
    criterion 9 (``random_element`` makes the same draws from seed 9), with
    every shift S(u*x_j), 0 <= u <= p_j, and whether it is classified special.
    """
    rng = random.Random(9)
    inputs = [(P355, X355)] + [
        random_element(rng, nmax=3, pmax=5, coprime=True) for _ in range(count)
    ]
    for params, x in inputs:
        for j, p in enumerate(params.weights):
            values = i_set(p, p - x.arms[j])
            for u in range(p + 1):
                yield params, x, l_scale(u, generator(params, j)), u in values


class TestOracleRoutes:
    def test_random_inputs_match_rank_route(self):
        rng = random.Random(51)
        seen = set()
        for _ in range(150):
            params, x = random_element(rng, nmax=5, pmax=9, coprime=True)
            params = Parameters(params.weights, _random_points(rng, params.n))
            x = normal_form(params, x.arms, x.c_coeff)
            if rng.random() < 0.5:
                j = rng.randrange(params.n)
                y = l_scale(rng.randint(0, params.weights[j]), generator(params, j))
            else:  # any degree, below 0 included
                y = normal_form(params, [rng.randrange(p) for p in params.weights], rng.randint(-2, 1))
            l_max = rng.randint(1, 9)
            result = speciality_oracle(params, x, y, l_max)
            assert result == _speciality_by_rank(params, x, y, l_max), (params, x, y, l_max)
            seen.add(result.special)
        assert seen == {True, False}

    def test_oracle_runs_without_rref(self, monkeypatch):
        # rref raises wherever a starres module binds it: the oracle never
        # reaches it, and the criterion-9 verdicts are unchanged
        modules = list(_criterion9_modules(12))
        expected = [speciality_oracle(params, x, y) for params, x, y, _ in modules]
        real_rref = linalg.rref

        def refused(rows):
            raise AssertionError("rref called")

        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "starres" and getattr(module, "rref", None) is real_rref:
                monkeypatch.setattr(module, "rref", refused)
        got = [speciality_oracle(params, x, y) for params, x, y, _ in modules]
        assert got == expected
        assert {r.special for r in got} == {True, False}
        with pytest.raises(AssertionError, match="rref called"):
            _speciality_by_rank(P355, X355, generator(P355, 1))


class TestDot:
    def test_names_and_tooltips(self):
        g = dual_graph(P355, X355)
        dot = to_dot(g, specials(P355, X355))
        assert "center" in dot and "E_2_2" in dot
        assert 'tooltip="S(c)"' in dot
        assert dot.count("--") == 5
