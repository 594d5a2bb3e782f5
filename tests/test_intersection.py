"""Pairing matrices, definiteness, fundamental and canonical cycles."""

import random
from fractions import Fraction
from math import prod

import pytest

from starres import intersection
from starres.errors import PreconditionError
from starres.intersection import (
    IntersectionMatrix,
    _eliminate_tree,
    canonical_cycle,
    fundamental_cycle,
    fundamental_cycle_brute,
    is_negative_definite,
    is_reduced,
    matrix_from_graph,
    pair,
)
from starres.lgroup import Parameters, normal_form, special_elements
from starres.linalg import det, solve
from starres.reconalg import quiver_combinatorial, quiver_from_intersection
from starres.resolution import dual_graph, make_star
from starres.sweeps import _minors_negative_definite, random_element


def chain_matrix(labels):
    return matrix_from_graph(make_star(labels[0], [labels[1:]] if len(labels) > 1 else []))


def laufer_any_order(m, rng, start):
    """Laufer increments with a random choice at every step."""
    z = [0] * m.size
    z[start] = 1
    while True:
        hot = [
            i
            for i in range(m.size)
            if sum(z[j] * m.entries[i][j] for j in range(m.size)) > 0
        ]
        if not hot:
            return tuple(z)
        z[rng.choice(hot)] += 1


def laufer_full_rescan(m):
    """The dense Laufer loop: rescan every vertex, add the lowest hot one."""
    z = [0] * m.size
    z[0] = 1
    while True:
        hot = [
            i
            for i in range(m.size)
            if sum(z[j] * m.entries[i][j] for j in range(m.size)) > 0
        ]
        if not hot:
            return tuple(z)
        z[hot[0]] += 1


def random_tree_matrix(rng, k, high=-1, forest=False):
    """A random labelled tree (or forest) on shuffled vertices, labels in [-6, high]."""
    perm = list(range(k))
    rng.shuffle(perm)
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        rows[i][i] = rng.randint(-6, high)
    for child in range(1, k):
        if forest and rng.random() < 0.2:
            continue
        a, b = perm[child], perm[rng.randrange(child)]
        rows[a][b] = rows[b][a] = 1
    return IntersectionMatrix(tuple(tuple(r) for r in rows))


AFFINE_STAR = matrix_from_graph(make_star(-2, [[-2], [-2], [-2], [-2]]))


def random_tree_matrices():
    """Seeded trees and forests of 1 to 60 vertices, plus the affine star."""
    rng = random.Random(14)
    mats = [AFFINE_STAR]
    for n in range(90):
        # labels in [-6, -2] are mostly definite, in [-6, -1] mostly not
        mats.append(random_tree_matrix(rng, rng.randint(1, 60), -1 - n % 2, n % 3 == 0))
    return mats


class TestTreePivots:
    """The leaf-to-root pass against the dense route on random trees."""

    MATS = random_tree_matrices()

    def test_sample_covers_every_kind(self):
        # the affine star is semidefinite: singular, not definite
        assert det(AFFINE_STAR.entries) == 0 and not is_negative_definite(AFFINE_STAR)
        definite = [is_negative_definite(m) for m in self.MATS]
        forests = [sum(x > 0 for row in m.entries for x in row) < 2 * (m.size - 1) for m in self.MATS]
        assert 20 <= sum(definite) <= len(self.MATS) - 20
        assert 20 <= sum(forests) and any(d and f for d, f in zip(definite, forests))
        assert max(m.size for m in self.MATS) >= 55

    def test_definiteness_matches_minors(self):
        for m in self.MATS:
            assert is_negative_definite(m) == _minors_negative_definite(m)

    def test_root_determinants_multiply_to_det(self):
        # D at each root is its component's determinant, the affine star's 0 included
        for m in self.MATS:
            tree = _eliminate_tree(m)
            assert all(type(d) is int for d in tree.dets + tree.rest)
            roots = [d for d, p in zip(tree.dets, tree.parent) if p < 0]
            assert prod(roots) == det(m.entries)

    def test_integer_routes_build_no_fraction(self, monkeypatch):
        rng = random.Random(19)
        stars = [random_element(rng, pmax=40, min_v=3) for _ in range(8)]
        stars = [(params, x) for params, x in stars if "non-minimal" not in dual_graph(params, x).flags]
        assert len(stars) >= 4

        def no_fraction(*args):
            raise AssertionError("the integer pass built a Fraction")

        monkeypatch.setattr(intersection, "Fraction", no_fraction)
        for m in self.MATS:
            definite = is_negative_definite(m)
            assert definite == _minors_negative_definite(m)
            if definite:
                assert fundamental_cycle(m) == laufer_full_rescan(m)
            else:
                with pytest.raises(PreconditionError):
                    fundamental_cycle(m)
        for params, x in stars:
            g = dual_graph(params, x)
            assert is_negative_definite(matrix_from_graph(g))
            qi, qc = quiver_from_intersection(g), quiver_combinatorial(params, x)
            assert (qi.arrows, qi.relations) == (qc.arrows, qc.relations)
        # the stub is live: the rational canonical cycle still needs Fraction
        with pytest.raises(AssertionError):
            canonical_cycle(next(m for m in self.MATS if is_negative_definite(m)))

    def test_canonical_cycle_matches_solve(self):
        for m in self.MATS:
            rhs = [m.entries[i][i] + 2 for i in range(m.size)]
            try:
                dense = solve(m.entries, rhs)
            except ValueError:
                with pytest.raises(PreconditionError):
                    canonical_cycle(m)
                continue
            try:
                zk = canonical_cycle(m)
            except PreconditionError:
                # a zero pivot: invertible, but neither definite
                assert not is_negative_definite(m)
                continue
            assert zk == dense
            assert all(type(z) is Fraction for z in zk)

    def test_fundamental_cycle_matches_full_rescan(self):
        for m in self.MATS:
            if not is_negative_definite(m):
                with pytest.raises(PreconditionError):
                    fundamental_cycle(m)
                continue
            assert fundamental_cycle(m) == laufer_full_rescan(m)

    def test_forest_cycle_stays_on_first_component(self):
        # two -2 chains: vertex 0's component only
        m = IntersectionMatrix(((-2, 1, 0, 0), (1, -2, 0, 0), (0, 0, -2, 1), (0, 0, 1, -2)))
        assert fundamental_cycle(m) == (1, 1, 0, 0) == laufer_full_rescan(m)
        assert canonical_cycle(m) == (0, 0, 0, 0)

    def test_multiple_edge(self):
        m = IntersectionMatrix(((-3, 2), (2, -3)))
        assert is_negative_definite(m) == _minors_negative_definite(m)
        assert canonical_cycle(m) == solve(m.entries, [-1, -1])
        assert fundamental_cycle(m) == laufer_full_rescan(m)

    @pytest.mark.parametrize(
        "entries",
        [
            ((-2, 1, 1), (1, -2, 1), (1, 1, -2)),  # triangle support
            ((-2, 1), (0, -2)),  # not symmetric
            ((-2, 1), (1,)),  # not square
        ],
        ids=["triangle", "non-symmetric", "non-square"],
    )
    def test_rejected(self, entries):
        m = IntersectionMatrix(entries)
        for fn in (is_negative_definite, fundamental_cycle, canonical_cycle):
            with pytest.raises(PreconditionError):
                fn(m)


class TestMatrix:
    def test_single_vertex(self):
        assert chain_matrix([-2]).entries == ((-2,),)

    def test_chain(self):
        assert chain_matrix([-2, -3]).entries == ((-2, 1), (1, -3))

    def test_star_from_example(self):
        params = Parameters([3, 5, 5])
        g = dual_graph(params, normal_form(params, [2, 2, 3], 0))
        m = matrix_from_graph(g)
        assert m.size == 6
        center_row = m.entries[g.center]
        assert center_row[g.center] == -3
        heads = [arm[0] for arm in g.arms]
        assert [center_row[h] for h in heads] == [1, 1, 1]
        assert sum(center_row) == 0  # -3 plus three edges


class TestNegativeDefinite:
    def test_single(self):
        assert is_negative_definite(IntersectionMatrix(((-2,),)))
        assert not is_negative_definite(IntersectionMatrix(((0,),)))

    def test_affine_tree_rejected(self):
        # the all-(-2) star with four single arms is only semidefinite
        m = matrix_from_graph(make_star(-2, [[-2], [-2], [-2], [-2]]))
        assert not is_negative_definite(m)
        assert is_negative_definite(matrix_from_graph(make_star(-2, [[-2], [-2], [-2]])))

    def test_every_resolution_graph(self):
        rng = random.Random(11)
        for _ in range(60):
            weights = [rng.randint(2, 5) for _ in range(rng.randint(1, 3))]
            params = Parameters(weights)
            x = normal_form(
                params, [rng.randrange(p) for p in weights], rng.randint(0, 3)
            )
            if x.c_coeff + sum(1 for a in x.arms if a) < 2:
                continue
            assert is_negative_definite(matrix_from_graph(dual_graph(params, x)))


class TestFundamentalCycle:
    def test_single_vertex(self):
        assert fundamental_cycle(IntersectionMatrix(((-2,),))) == (1,)

    def test_chain(self):
        m = chain_matrix([-2, -3])
        assert fundamental_cycle(m) == (1, 1)
        assert fundamental_cycle_brute(m) == (1, 1)

    def test_star_all_ones_iff_center_deep_enough(self):
        # center -(a+v) with v arms: reduced exactly when a >= 0, i.e. always
        params = Parameters([3, 5, 5])
        g = dual_graph(params, normal_form(params, [2, 2, 3], 0))
        assert fundamental_cycle(matrix_from_graph(g)) == (1,) * 6

    def test_shallow_center_not_reduced(self):
        # beta = 2 < v = 3: negative definite, but the cycle climbs
        m = matrix_from_graph(make_star(-2, [[-3], [-3], [-3]]))
        assert is_negative_definite(m)
        zf = fundamental_cycle(m)
        assert not is_reduced(zf)
        assert zf == fundamental_cycle_brute(m)

    def test_more_shallow_stars(self):
        for arms in ([[-4], [-4], [-4]], [[-2], [-3], [-3]]):
            m = matrix_from_graph(make_star(-2, arms))
            if not is_negative_definite(m):
                continue
            zf = fundamental_cycle(m)
            assert sum(zf) > m.size or not is_reduced(zf)
            assert zf == fundamental_cycle_brute(m)

    def test_order_and_start_independence(self):
        rng = random.Random(12)
        mats = [
            chain_matrix([-2, -3]),
            chain_matrix([-3, -2, -2, -4]),
            matrix_from_graph(make_star(-3, [[-2], [-2, -2], [-3]])),
            matrix_from_graph(make_star(-2, [[-3], [-3], [-3]])),
        ]
        for m in mats:
            expected = fundamental_cycle(m)
            for start in range(m.size):
                for _ in range(5):
                    assert laufer_any_order(m, rng, start) == expected

    def test_every_increment_order_small_graphs(self):
        # exhaustively branch over every choice at every step
        def all_orders(m, z):
            hot = [
                i
                for i in range(m.size)
                if sum(z[j] * m.entries[i][j] for j in range(m.size)) > 0
            ]
            if not hot:
                return {tuple(z)}
            results = set()
            for i in hot:
                z[i] += 1
                results |= all_orders(m, z)
                z[i] -= 1
            return results

        for m in [
            chain_matrix([-2, -2, -2]),
            matrix_from_graph(make_star(-2, [[-3], [-3], [-3]])),
            matrix_from_graph(make_star(-2, [[-2], [-3], [-4]])),
        ]:
            expected = fundamental_cycle(m)
            for start in range(m.size):
                z = [0] * m.size
                z[start] = 1
                assert all_orders(m, z) == {expected}

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(13)
        seen = 0
        while seen < 25:
            weights = [rng.randint(2, 5) for _ in range(rng.randint(1, 3))]
            params = Parameters(weights)
            x = normal_form(
                params, [rng.randrange(p) for p in weights], rng.randint(0, 3)
            )
            if x.c_coeff + sum(1 for a in x.arms if a) < 2:
                continue
            m = matrix_from_graph(dual_graph(params, x))
            if m.size > 8:
                continue
            seen += 1
            assert fundamental_cycle(m) == fundamental_cycle_brute(m)

    def test_brute_box_capped_before_enumerating(self):
        # 4^11 points at the default bound: refused at once, not scanned
        m = chain_matrix([-2] * 11)
        with pytest.raises(PreconditionError, match="4194304 points"):
            fundamental_cycle_brute(m)
        # the cap counts points, not vertices: 2^11 points are scanned
        assert fundamental_cycle_brute(m, bound=2) == fundamental_cycle(m)

    def test_requires_negative_definite(self):
        with pytest.raises(PreconditionError):
            fundamental_cycle(IntersectionMatrix(((0,),)))


class TestReduced:
    def test_values(self):
        assert is_reduced((1, 1, 1))
        assert not is_reduced((2, 1))
        assert not is_reduced((1, 0))

    def test_rejects_rationals(self):
        with pytest.raises(PreconditionError):
            is_reduced((Fraction(1, 2),))


class TestCanonicalCycle:
    def test_single_minus_two(self):
        assert canonical_cycle(IntersectionMatrix(((-2,),))) == (0,)

    def test_single_minus_three(self):
        assert canonical_cycle(IntersectionMatrix(((-3,),))) == (Fraction(1, 3),)

    def test_ade_trees_vanish(self):
        for labels in ([-2, -2], [-2, -2, -2, -2]):
            assert all(z == 0 for z in canonical_cycle(chain_matrix(labels)))
        for arms in ([[-2], [-2], [-2]], [[-2], [-2, -2], [-2, -2]]):
            m = matrix_from_graph(make_star(-2, arms))
            assert all(z == 0 for z in canonical_cycle(m))

    def test_defining_system(self):
        m = matrix_from_graph(make_star(-3, [[-2], [-2, -2], [-3]]))
        zk = canonical_cycle(m)
        for i in range(m.size):
            ei = tuple(1 if j == i else 0 for j in range(m.size))
            assert pair(m, zk, ei) == m.entries[i][i] + 2

    def test_denominators_divide_determinant(self):
        m = matrix_from_graph(make_star(-4, [[-3, -2], [-5], [-2, -2, -2]]))
        d = det(m.entries)
        for z in canonical_cycle(m):
            assert (z * d).denominator == 1

    def test_singular_rejected(self):
        with pytest.raises(PreconditionError):
            canonical_cycle(IntersectionMatrix(((0,),)))


def pair_dense(m, a, b):
    """a^T M b as the double sum over every entry."""
    return Fraction(sum(a[i] * m.entries[i][j] * b[j] for i in range(m.size) for j in range(m.size)))


def random_cycle(rng, k, kind):
    """A cycle of int or Fraction components, about half of them zero."""
    if kind == "unit":
        return tuple(int(j == rng.randrange(k)) for j in range(k))
    z = [0 if rng.random() < 0.5 else rng.randint(-5, 5) for _ in range(k)]
    if kind == "fraction":
        z = [Fraction(c, rng.randint(1, 7)) for c in z]
    return tuple(z)


class TestPair:
    def test_matches_dense_double_sum(self):
        rng = random.Random(15)
        kinds = [
            ("int", "int"),
            ("int", "unit"),
            ("fraction", "int"),
            ("unit", "fraction"),
            ("fraction", "fraction"),
        ]
        for m in TestTreePivots.MATS:
            for ka, kb in kinds:
                a, b = random_cycle(rng, m.size, ka), random_cycle(rng, m.size, kb)
                value = pair(m, a, b)
                assert type(value) is Fraction
                assert value == pair_dense(m, a, b)

    def test_zero_cycle_is_a_fraction(self):
        m = chain_matrix([-2, -3, -2])
        assert type(pair(m, (0, 0, 0), (1, 1, 1))) is Fraction
        assert pair(m, (0, 0, 0), (1, 1, 1)) == 0

    def test_self_intersection(self):
        m = chain_matrix([-2, -3])
        assert pair(m, (1, 0), (1, 0)) == -2
        assert pair(m, (0, 1), (0, 1)) == -3
        assert pair(m, (1, 0), (0, 1)) == 1

    def test_fundamental_self_intersection_233(self):
        # the degree-one Veronese of (2,3,3): center -3, arms of -2's
        params = Parameters([2, 3, 3])
        g = dual_graph(params, special_elements(params).s)
        m = matrix_from_graph(g)
        zf = fundamental_cycle(m)
        assert zf == (1,) * 6
        assert pair(m, zf, zf) == -3

    def test_length_mismatch(self):
        with pytest.raises(PreconditionError):
            pair(chain_matrix([-2, -3]), (1,), (1, 1))
