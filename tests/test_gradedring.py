"""Graded pieces, quotient-ring rewriting, spans and piece products."""

import random
from fractions import Fraction

import pytest

from starres.errors import ParameterError, PreconditionError
from starres.gradedring import (
    Monomial,
    RingElement,
    graded_basis,
    graded_dim,
    linear_form,
    multiply,
    piece_product,
    ring_one,
    span,
)
from starres.lgroup import (
    LElement,
    Parameters,
    c_element,
    generator,
    is_positive,
    l_add,
    l_neg,
    l_scale,
    normal_form,
    special_elements,
)
from starres.linalg import rref


def t_gen(params, which):
    """The coordinate t0 (which = 0) or t1 (which = 1)."""
    return RingElement.from_monomial(params, 1, t0=1 - which, t1=which)


def x_gen(params, i):
    """The generator x_(i+1) as a ring element."""
    return RingElement.from_monomial(params, 1, arms=[int(k == i) for k in range(params.n)])


def degree_of(elem):
    """The degree of a nonzero homogeneous element, read off its term keys."""
    ((arms, a),) = {(k[2], k[0] + k[1]) for k in elem.terms}
    return LElement(elem.params.weights, arms, a)


def rand_positive(rng, params, amax=3):
    return normal_form(
        params, [rng.randrange(p) for p in params.weights], rng.randint(0, amax)
    )


class TestLinearForm:
    def test_normalized_forms(self):
        assert linear_form((1, 0)) == (0, 1)  # t1
        assert linear_form((0, 1)) == (1, 0)  # t0
        assert linear_form((1, 1)) == (1, -1)  # t0 - t1
        assert linear_form((2, 1)) == (Fraction(1, 2), -1)


class TestGradedDim:
    def test_c_is_two_dimensional(self):
        params = Parameters([2, 3, 3])
        assert graded_dim(params, c_element(params)) == 2

    def test_omega_vanishes(self):
        params = Parameters([2, 3, 3])
        assert graded_dim(params, special_elements(params).omega) == 0

    def test_s_is_a_line(self):
        for weights in ([2, 3], [3, 5, 5], [2, 2, 2, 2]):
            params = Parameters(weights)
            assert graded_dim(params, special_elements(params).s) == 1

    def test_matches_basis_length(self):
        rng = random.Random(7)
        params = Parameters([2, 3, 5])
        for _ in range(40):
            y = normal_form(
                params, [rng.randint(-5, 5) for _ in range(3)], rng.randint(-3, 4)
            )
            assert graded_dim(params, y) == len(graded_basis(params, y).basis)


class TestGradedBasis:
    def test_degree_2c(self):
        params = Parameters([2, 3, 3])
        piece = graded_basis(params, l_scale(2, c_element(params)))
        assert [str(m) for m in piece.basis] == ["t1^2", "t0*t1", "t0^2"]

    def test_degree_x1(self):
        params = Parameters([2, 3, 3])
        piece = graded_basis(params, generator(params, 0))
        assert [str(m) for m in piece.basis] == ["x1"]

    def test_355(self):
        params = Parameters([3, 5, 5])
        piece = graded_basis(params, normal_form(params, [2, 2, 3], 0))
        assert [str(m) for m in piece.basis] == ["x1^2*x2^2*x3^3"]

    def test_monomial_str(self):
        assert str(Monomial(Fraction(1), 2, 1, (3, 0))) == "t0^2*t1*x1^3"
        assert str(Monomial(Fraction(-1), 0, 0, (0, 0))) == "-1"
        assert str(Monomial(Fraction(3, 2), 1, 0, (0, 1))) == "3/2*t0*x2"


class TestMultiply:
    def test_defining_relation(self):
        params = Parameters([2, 3, 3])  # normalized, so x1^2 = t1
        x1 = x_gen(params, 0)
        assert multiply(params, x1, x1) == t_gen(params, 1)

    def test_x2_cubed_is_t0(self):
        params = Parameters([2, 3, 3])
        x2 = x_gen(params, 1)
        assert x2 * x2 * x2 == t_gen(params, 0)

    def test_third_point_form(self):
        params = Parameters([2, 3, 3])  # third point (1:1) gives t0 - t1
        x3 = x_gen(params, 2)
        assert x3 * x3 * x3 == t_gen(params, 0) - t_gen(params, 1)

    def test_commutative_associative(self):
        rng = random.Random(8)
        params = Parameters([2, 3, 4])
        for _ in range(20):
            elems = []
            for _ in range(3):
                arms = [rng.randrange(2 * p) for p in params.weights]
                elems.append(
                    RingElement.from_monomial(
                        params, rng.randint(-3, 3), rng.randrange(2), rng.randrange(2), arms
                    )
                )
            u, v, w = elems
            assert u * v == v * u
            assert (u * v) * w == u * (v * w)

    def test_degree_additive(self):
        rng = random.Random(9)
        params = Parameters([3, 4])
        for _ in range(30):
            a1 = [rng.randrange(6), rng.randrange(8)]
            a2 = [rng.randrange(6), rng.randrange(8)]
            u = RingElement.from_monomial(params, 1, 1, 0, a1)
            v = RingElement.from_monomial(params, 2, 0, 1, a2)
            prod = u * v
            assert degree_of(prod) == l_add(degree_of(u), degree_of(v))

    def test_mixed_parameters_rejected(self):
        a = ring_one(Parameters([2, 3]))
        b = ring_one(Parameters([2, 4]))
        with pytest.raises(ParameterError):
            a * b


class TestPieceProduct:
    def test_c_times_c_full(self):
        params = Parameters([2, 3, 3])
        c = c_element(params)
        product = rref(piece_product(params, c, c))
        assert len(product) == 3
        assert len(product) == graded_dim(params, l_add(c, c))

    def test_x1_squared_is_a_line(self):
        params = Parameters([2, 3, 3])
        x1 = generator(params, 0)
        product = rref(piece_product(params, x1, x1))
        assert len(product) == 1
        assert graded_dim(params, l_add(x1, x1)) == 2
        # the line is spanned by x1^2 = t1
        piece = graded_basis(params, l_add(x1, x1))
        expected = span(piece, [x_gen(params, 0) * x_gen(params, 0)])
        assert product == expected

    def test_empty_factor_gives_zero(self):
        params = Parameters([2, 3])
        omega = special_elements(params).omega
        c = c_element(params)
        assert len(rref(piece_product(params, omega, c))) == 0

    def test_closed_form(self):
        # S_y * S_{x-y} = (prod_{i in I} x_i^{p_i}) S_{x - |I|c},
        # I = {i : a_i < b_i} on the normal forms of x and y
        rng = random.Random(10)
        checked = 0
        while checked < 100:
            weights = [rng.randint(2, 5) for _ in range(rng.randint(1, 3))]
            params = Parameters(weights)
            x = rand_positive(rng, params)
            y = normal_form(
                params, [rng.randrange(p) for p in weights], rng.randint(0, x.c_coeff)
            )
            diff = l_add(x, l_neg(y))
            if not is_positive(diff):
                continue
            checked += 1
            big = [i for i in range(len(weights)) if x.arms[i] < y.arms[i]]
            shifted = l_add(x, l_scale(-len(big), c_element(params)))
            assert is_positive(shifted)
            core_arms = [weights[i] if i in big else 0 for i in range(len(weights))]
            core = RingElement.from_monomial(params, 1, arms=core_arms)
            target = graded_basis(params, x)
            rhs = span(
                target,
                [core * RingElement.from_monomial(params, m.coeff, m.t0, m.t1, m.arms)
                 for m in graded_basis(params, shifted).basis],
            )
            assert rref(piece_product(params, y, diff)) == rhs

    def test_matches_basis_products_on_any_points(self):
        # the integer form prod(w_i*t0 - u_i*t1) spans what the ring's own
        # pairwise basis products span, on points other than the defaults
        rng = random.Random(12)
        for _ in range(60):
            weights = [rng.randint(2, 5) for _ in range(rng.randint(1, 4))]
            points = []
            while len(points) < len(weights):
                u, w = rng.randint(0, 4), rng.randint(-4, 4)
                if (u, w) != (0, 0) and all(u * b != w * a for a, b in points):
                    points.append((u, w))
            params = Parameters(weights, points)
            y, z = (
                normal_form(params, [rng.randrange(p) for p in weights], rng.randint(0, 2))
                for _ in range(2)
            )
            y_basis, z_basis = (
                [RingElement.from_monomial(params, m.coeff, m.t0, m.t1, m.arms) for m in piece.basis]
                for piece in (graded_basis(params, y), graded_basis(params, z))
            )
            products = [multiply(params, a, b) for a in y_basis for b in z_basis]
            expected = span(graded_basis(params, l_add(y, z)), products)
            assert rref(piece_product(params, y, z)) == expected


class TestSubspaces:
    def test_coords_outside_piece_rejected(self):
        params = Parameters([2, 3])
        piece = graded_basis(params, c_element(params))
        with pytest.raises(PreconditionError):
            span(piece, [x_gen(params, 0)])


class TestZeroWeights:
    def test_empty_weight_vector(self):
        params = Parameters([])
        assert graded_dim(params, l_scale(3, c_element(params))) == 4
        t0 = t_gen(params, 0)
        assert degree_of(t0 * t0) == l_scale(2, c_element(params))
        assert normal_form(params, [], 0) == LElement((), (), 0)
