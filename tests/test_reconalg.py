"""Quiver counts by both routes, the Veronese presentation, and Dynkin data."""

import itertools
import random
from fractions import Fraction

import pytest

from starres import reconalg
from starres.errors import ParameterError, PreconditionError
from starres.gradedring import RingElement, graded_basis
from starres.intersection import canonical_cycle, fundamental_cycle, matrix_from_graph, pair
from starres.lgroup import (
    Parameters,
    c_element,
    l_add,
    l_neg,
    l_scale,
    normal_form,
    special_elements,
)
from starres.reconalg import (
    _word_count,
    degree_zero_canonical,
    domestic_classify,
    quiver_combinatorial,
    quiver_from_intersection,
    quiver_to_dot,
    wahl_generators,
    wahl_relations,
    wahl_special_ideals,
    wahl_verify,
)
from starres.resolution import dual_graph, make_star, specials


P355 = Parameters([3, 5, 5])
X355 = normal_form(P355, [2, 2, 3], 0)


def random_valid(rng, min_v=2, pmax=6, nmax=4, amax=3):
    while True:
        weights = [rng.randint(2, pmax) for _ in range(rng.randint(min_v, nmax))]
        params = Parameters(weights)
        x = normal_form(params, [rng.randrange(p) for p in weights], rng.randint(0, amax))
        v = sum(1 for a in x.arms if a)
        if v >= min_v and v + x.c_coeff >= 2:
            return params, x


class TestIntersectionRoute:
    def test_double_point(self):
        # single (-2)-vertex: two arrows each way, one relation at each vertex
        params = Parameters([2, 3])
        x = l_scale(2, c_element(params))
        q = quiver_from_intersection(dual_graph(params, x), specials(params, x))
        assert q.vertices == ("S(c)", "R")
        assert q.arrows == ((0, 2), (2, 0))
        assert q.relations == ((1, 0), (0, 1))

    def test_example_center_to_ring(self):
        g = dual_graph(P355, X355)
        q = quiver_from_intersection(g, specials(P355, X355))
        assert q.arrows[g.center][q.star] == 0

    def test_non_minimal_rejected(self):
        params = Parameters([2, 3, 3])
        g = dual_graph(params, normal_form(params, [0, 2, 0], 0))
        with pytest.raises(PreconditionError):
            quiver_from_intersection(g)

    def test_semidefinite_star_rejected(self):
        # the affine D4 star: every label is <= -2, but the matrix is only
        # negative semidefinite, so the fundamental cycle refuses it
        with pytest.raises(PreconditionError):
            quiver_from_intersection(make_star(-2, [[-2]] * 4))

    def test_star_relation_identity(self):
        # -Z_K . Z_f + 1 agrees with -1 - Z_f . Z_f on resolution graphs
        rng = random.Random(16)
        for _ in range(20):
            params, x = random_valid(rng)
            m = matrix_from_graph(dual_graph(params, x))
            zf = fundamental_cycle(m)
            zk = canonical_cycle(m)
            assert -pair(m, zk, zf) + 1 == -1 - pair(m, zf, zf)


class TestCrossConstruction:
    def test_example(self):
        qc = quiver_combinatorial(P355, X355)
        qi = quiver_from_intersection(dual_graph(P355, X355), specials(P355, X355))
        assert qc == qi

    def test_extra_arrow_placement(self):
        g = dual_graph(P355, X355)
        q = quiver_combinatorial(P355, X355)
        # arm 1 vertex (-3): doubled edge to the ring vertex plus one extra
        arm1 = g.arms[0][0]
        assert q.arrows[arm1][q.star] == 2
        # inner arm-2 vertex (-2): no connection to the ring vertex
        assert q.arrows[g.arms[1][0]][q.star] == 0
        # inner arm-3 vertex (-3), not an arm end: one extra arrow only
        assert q.arrows[g.arms[2][0]][q.star] == 1

    def test_shifted_sum(self):
        params = Parameters([2, 3, 3])
        sp = special_elements(params)
        for k in range(3):
            x = sp.s_a(k)
            qc = quiver_combinatorial(params, x)
            qi = quiver_from_intersection(dual_graph(params, x), specials(params, x))
            assert qc == qi
            g = dual_graph(params, x)
            assert qc.arrows[g.center][qc.star] == k

    def test_random_agreement(self):
        # small stars, then 3-4 arm stars of weights up to 80 and at least
        # 40 vertices
        rng = random.Random(17)
        inputs = [random_valid(rng) for _ in range(20)]
        while len(inputs) < 30:
            params, x = random_valid(rng, min_v=3, pmax=80)
            if dual_graph(params, x).size >= 40:
                inputs.append((params, x))
        for params, x in inputs:
            qc = quiver_combinatorial(params, x)
            qi = quiver_from_intersection(dual_graph(params, x), specials(params, x))
            assert qc == qi, (params.weights, x)

    def test_center_arrow_count_is_a_graded_dimension(self):
        rng = random.Random(18)
        for _ in range(15):
            params, x = random_valid(rng)
            g = dual_graph(params, x)
            q = quiver_combinatorial(params, x)
            shifted = l_add(x, l_neg(c_element(params)))
            assert q.arrows[g.center][q.star] == len(graded_basis(params, shifted).basis)

    def test_ring_relations_nonnegative(self):
        rng = random.Random(19)
        for _ in range(15):
            params, x = random_valid(rng)
            q = quiver_combinatorial(params, x)
            assert q.relations[q.star][q.star] >= 0
            assert all(r >= 0 for row in q.relations for r in row)
            assert all(r >= 0 for row in q.arrows for r in row)

    def test_degenerate_rejected(self):
        params = Parameters([2, 3, 3])
        with pytest.raises(PreconditionError):
            quiver_combinatorial(params, normal_form(params, [0, 2, 0], 1))

    def test_one_arm_error_comes_before_not_minimal(self):
        # x = x3 lies in [0, c] and has one arm: the arm count is refused first
        params = Parameters([2, 3, 3])
        with pytest.raises(PreconditionError) as exc:
            quiver_combinatorial(params, normal_form(params, [0, 0, 1], 0))
        assert type(exc.value) is PreconditionError

    def test_builds_the_dual_graph_once(self, monkeypatch):
        import starres.reconalg
        import starres.resolution

        expected = quiver_from_intersection(dual_graph(P355, X355), specials(P355, X355))
        calls = []

        def counted(params, x):
            calls.append(x)
            return dual_graph(params, x)

        monkeypatch.setattr(starres.reconalg, "dual_graph", counted)
        monkeypatch.setattr(starres.resolution, "dual_graph", counted)
        assert quiver_combinatorial(P355, X355) == expected
        assert len(calls) == 1

    def test_dot_export(self):
        dot = quiver_to_dot(quiver_combinatorial(P355, X355))
        assert "color=red" in dot and "color=black" in dot


class TestQuiverLimit:
    def test_both_routes_take_the_limit_and_refuse_one_more(self, monkeypatch):
        g = dual_graph(P355, X355)
        labels = specials(P355, X355)
        monkeypatch.setattr(reconalg, "_QUIVER_MAX_VERTICES", g.size)
        assert quiver_from_intersection(g, labels) == quiver_combinatorial(P355, X355)
        monkeypatch.setattr(reconalg, "_QUIVER_MAX_VERTICES", g.size - 1)
        with pytest.raises(PreconditionError, match=f"{g.size} vertices"):
            quiver_from_intersection(g, labels)
        with pytest.raises(PreconditionError, match=f"{g.size} vertices"):
            quiver_combinatorial(P355, X355)

    def test_refused_before_any_matrix_is_built(self, monkeypatch):
        def no_matrix(g):
            raise AssertionError("matrix built for a graph above the limit")

        params = Parameters([4001, 3])
        g = dual_graph(params, normal_form(params, [1, 1], 0))
        monkeypatch.setattr(reconalg, "matrix_from_graph", no_matrix)
        with pytest.raises(PreconditionError, match="limited to 4000"):
            quiver_from_intersection(g)


class TestDegreeZero:
    def test_example(self):
        desc = degree_zero_canonical(P355, dual_graph(P355, X355))
        assert desc.weights == (2, 3, 3)
        assert desc.points == P355.points

    def test_degree_one_veronese_keeps_parameters(self):
        params = Parameters([2, 3, 4])
        desc = degree_zero_canonical(params, dual_graph(params, special_elements(params).s))
        assert desc.weights == params.weights
        assert desc.points == params.points
        assert desc.relations == ("x1^2 - 1*x2^3 + x3^4",)

    def test_zero_arm_dropped(self):
        params = Parameters([2, 3, 4])
        x = normal_form(params, [1, 0, 2], 1)
        desc = degree_zero_canonical(params, dual_graph(params, x))
        assert desc.weights == (2, 2)  # both kept arms have expansion [2]
        assert desc.points == (params.points[0], params.points[2])


class TestWahlGenerators:
    def test_233_formulas(self):
        params = Parameters([2, 3, 3])
        pres = wahl_generators(params)
        expect = [
            RingElement.from_monomial(params, 1, arms=[5, 0, 3]),
            RingElement.from_monomial(params, 1, arms=[0, 5, 2]),
            RingElement.from_monomial(params, -1, arms=[3, 6, 0]),
        ]
        assert list(pres.gens) == expect
        assert pres.v == RingElement.from_monomial(params, 1, arms=[1, 1, 1])
        assert pres.degrees == (3, 2, 3)

    def test_matrix_shape(self):
        params = Parameters([2, 3, 3])
        pres = wahl_generators(params)
        assert pres.matrix_symbolic[0] == ("u2", "u3", "v^3")
        assert pres.matrix_symbolic[1] == ("v^2", "1*u3 + v^3", "u1")

    def test_product_identities(self):
        # u1*u2 = v^(p1+p2) and u1*ui = v^p2 * (lam_i*ui + v^pi) in the ring
        for weights in ([2, 3, 3], [2, 3, 5], [3, 4, 5], [2, 3, 3, 4]):
            params = Parameters(weights)
            pres = wahl_generators(params)

            def vpow(k):
                out = pres.v
                for _ in range(k - 1):
                    out = out * pres.v
                return out

            p = params.weights
            assert pres.gens[0] * pres.gens[1] == vpow(p[0] + p[1])
            for i in range(2, params.n):
                lam = Fraction(params.points[i][1], params.points[i][0])
                rhs = vpow(p[1]) * (pres.gens[i].scale(lam) + vpow(p[i]))
                assert pres.gens[0] * pres.gens[i] == rhs, (weights, i)

    def test_requires_three_weights(self):
        with pytest.raises(PreconditionError):
            wahl_generators(Parameters([2, 3]))

    def test_requires_normalized_points(self):
        with pytest.raises(ParameterError):
            wahl_generators(Parameters([2, 3, 3], [(1, 1), (0, 1), (1, 0)]))


class TestWahlVerify:
    def test_233(self):
        report = wahl_verify(Parameters([2, 3, 3]), 10)
        assert report.ok

    def test_235(self):
        assert wahl_verify(Parameters([2, 3, 5]), 10).ok

    @pytest.mark.parametrize("weights", [(2, 3, 3), (2, 3, 4, 5)])
    def test_report_carries_the_presentation(self, weights):
        params = Parameters(weights)
        assert wahl_verify(params, 6).presentation == wahl_generators(params)

    @pytest.mark.parametrize("max_degree", [0, -5])
    def test_empty_degree_range_rejected(self, max_degree):
        with pytest.raises(PreconditionError):
            wahl_verify(Parameters([2, 3, 4]), max_degree)

    def test_equal_points_rejected_at_construction(self):
        with pytest.raises(ParameterError):
            Parameters([2, 3, 3], [(1, 0), (0, 1), (2, 0)])

    def test_word_count_matches_enumeration(self):
        for weights, top in [((2, 3, 3), 10), ((2, 3, 3, 4), 12), ((3, 5, 5), 12), ((7,), 3)]:
            degrees = (*weights, 1)
            words = [
                exps
                for exps in itertools.product(*(range(top // d + 1) for d in degrees))
                if 1 <= sum(e * d for e, d in zip(exps, degrees)) <= top
            ]
            assert _word_count(degrees, top) == len(words), weights
        assert _word_count((2, 3, 3, 4, 1), 12) == 260
        assert _word_count((2, 3, 4, 5, 1), 30) == 5325

    def test_too_many_words_rejected(self):
        # refused before any ring element is multiplied out
        with pytest.raises(PreconditionError, match="more than 4000"):
            wahl_verify(Parameters([2, 3, 4, 5]), 30)


class TestWahlIdeals:
    def test_233_table(self):
        params = Parameters([2, 3, 3])
        pres = wahl_generators(params)
        ideals = dict((lab.display, ideal) for lab, ideal in wahl_special_ideals(pres))
        assert ideals["S(c)"] == "(v^3, u1)"
        assert ideals["S(x1)"] == "(v^4, u1)"  # arm-1 outer vertex
        assert ideals["S(x2)"] == "(u1, v)"
        assert ideals["S(2x2)"] == "(u1, v^2)"
        assert ideals["S(x3)"] == "(u3, v)"  # arm-3 outermost
        assert ideals["S(2x3)"] == "(u3, v^2)"

    def test_counts(self):
        params = Parameters([2, 3, 4])
        ideals = wahl_special_ideals(wahl_generators(params))
        assert len(ideals) == 1 + sum(p - 1 for p in params.weights)


class TestWahlRelations:
    def test_canonical_relation_present(self):
        rels = wahl_relations(wahl_generators(Parameters([2, 3, 3])))
        assert "x1^2 - 1*x2^3 + x3^3" in rels.relations

    def test_two_cycle_count_at_center(self):
        rels = wahl_relations(wahl_generators(Parameters([2, 3, 3, 3])))
        at_center = [r for r in rels.relations if r.startswith("at center")]
        assert len(at_center) == 4 - 1

    def test_total_count_matches_quiver(self):
        for weights in ([2, 3, 3], [2, 3, 4], [3, 3, 3]):
            params = Parameters(weights)
            s = special_elements(params).s
            q = quiver_combinatorial(params, s)
            total = sum(sum(row) for row in q.relations)
            assert len(wahl_relations(wahl_generators(params)).relations) == total

    def test_arrow_degrees(self):
        rels = wahl_relations(wahl_generators(Parameters([2, 3, 3])))
        for arrow in rels.arrows:
            assert arrow.z_degree == (0 if arrow.color == "black" else 1)
        # each doubled edge carries one black and one red arrow: 2-cycles
        # all have total degree one, so the emitted equalities are homogeneous
        pairs = {}
        for arrow in rels.arrows:
            pairs.setdefault(frozenset((arrow.source, arrow.target)), []).append(arrow)
        for edge, arrows in pairs.items():
            assert sorted(a.z_degree for a in arrows) == [0, 1], edge

    def test_arrow_count_matches_quiver(self):
        params = Parameters([2, 3, 4])
        s = special_elements(params).s
        q = quiver_combinatorial(params, s)
        arrows = wahl_relations(wahl_generators(params)).arrows
        assert len(arrows) == sum(sum(row) for row in q.arrows)


class TestDomestic:
    def test_table(self):
        assert domestic_classify(Parameters([2, 3, 4]), 3).to_json() == {
            "group": "O_13",
            "h": 12,
            "pi_index": 13,
        }
        assert domestic_classify(Parameters([2, 3, 3]), 3).group == "T_7"
        info = domestic_classify(Parameters([2, 3, 5]), 4)
        assert (info.group, info.pi_index) == ("I_61", 61)

    def test_graphs(self):
        for weights in ([2, 3, 3], [2, 3, 4], [2, 3, 5]):
            params = Parameters(weights)
            sp = special_elements(params)
            for m in range(3, 7):
                info = domestic_classify(params, m)
                assert info.pi_index == info.h * (m - 2) + 1
                g = dual_graph(params, sp.s_a(m - 3))
                assert g.labels[g.center] == -m
                for arm, p in zip(g.arms, weights):
                    assert len(arm) == p - 1
                    assert all(g.labels[i] == -2 for i in arm)

    def test_rejects_non_dynkin(self):
        with pytest.raises(PreconditionError):
            domestic_classify(Parameters([2, 3, 6]), 3)

    def test_rejects_small_m(self):
        with pytest.raises(PreconditionError):
            domestic_classify(Parameters([2, 3, 3]), 2)
