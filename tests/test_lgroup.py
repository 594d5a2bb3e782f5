"""Group arithmetic: normal forms, order structure, distinguished elements."""

import json
import random
from fractions import Fraction

import pytest

from starres.errors import ParameterError, PreconditionError
from starres.gradedring import graded_dim
from starres.lgroup import (
    LElement,
    Parameters,
    c_element,
    coprime_criterion,
    default_points,
    generator,
    in_interval_0_c,
    is_positive,
    is_torsion,
    l_add,
    l_neg,
    l_scale,
    normal_form,
    reduce_parameters,
    special_elements,
)


def rand_element(rng, params):
    coeffs = [rng.randint(-7, 7) for _ in params.weights]
    return normal_form(params, coeffs, rng.randint(-4, 4))


class TestParameters:
    def test_rejects_small_weights(self):
        with pytest.raises(ParameterError):
            Parameters([1, 3])

    def test_rejects_equal_points(self):
        with pytest.raises(ParameterError):
            Parameters([2, 2], [(1, 0), (2, 0)])

    @pytest.mark.parametrize("weights", [[2.5, 3], [Fraction(7, 2)], [3.0], ["3"]])
    def test_rejects_non_integer_weights(self, weights):
        # refused, not truncated to (2, 3)
        with pytest.raises(ParameterError):
            Parameters(weights)

    @pytest.mark.parametrize("point", [(0.1, 1), (0, 1.0), (1.5, 2)])
    def test_rejects_float_points(self, point):
        # refused, not expanded to the binary value of 0.1
        with pytest.raises(ParameterError):
            Parameters([2, 3], [point, (1, 0)])

    @pytest.mark.parametrize("points", [[(1, 0)], [(1, 0), (0, 1), (1, 1)]])
    def test_rejects_wrong_point_count(self, points):
        with pytest.raises(ParameterError):
            Parameters([2, 3], points)

    def test_rejects_zero_point(self):
        with pytest.raises(ParameterError):
            Parameters([2], [(0, 0)])

    def test_point_canonicalization(self):
        params = Parameters([2, 3], [("-1", "0"), ("1/2", "1/3")])
        assert params.points == ((1, 0), (3, 2))
        params = Parameters([2, 3], [(Fraction(1, 2), 1), (4, Fraction(-2, 3))])
        assert params.points == ((1, 2), (6, -1))

    def test_default_points_distinct(self):
        for n in range(8):
            Parameters([2] * n if n else [], default_points(n))

    def test_normalized_flag(self):
        assert Parameters([2, 3]).is_normalized
        assert not Parameters([2, 3], [(1, 1), (0, 1)]).is_normalized


class TestRecords:
    """Parameters and LElement are immutable NamedTuples."""

    def test_repr_text(self):
        params = Parameters([3, 5, 5])
        assert repr(params) == "Parameters(weights=(3, 5, 5), points=((1, 0), (0, 1), (1, 1)))"
        x = normal_form(params, [2, 2, 3], 0)
        assert repr(x) == "LElement(weights=(3, 5, 5), arms=(2, 2, 3), c_coeff=0)"

    def test_fields_are_read_only(self):
        # AttributeError, the base of a frozen dataclass's FrozenInstanceError
        params = Parameters([3, 5, 5])
        x = normal_form(params, [2, 2, 3], 0)
        for record, name in ((params, "weights"), (params, "points"), (x, "c_coeff")):
            with pytest.raises(AttributeError):
                setattr(record, name, ())

    def test_tuple_of_its_fields(self):
        params = Parameters([2, 3])
        assert params == ((2, 3), ((1, 0), (0, 1)))
        assert len(params) == 2 and params.n == 2
        x = normal_form(params, [1, 2], 1)
        assert tuple(x) == (x.weights, x.arms, x.c_coeff) == ((2, 3), (1, 2), 1)


class TestNormalForm:
    def test_relation_p2_x2_is_c(self):
        params = Parameters([2, 3, 3])
        assert normal_form(params, [0, 3, 0], 0) == c_element(params)

    def test_omega_233(self):
        params = Parameters([2, 3, 3])
        omega = normal_form(params, [-1, -1, -1], 1)
        assert (omega.arms, omega.c_coeff) == ((1, 2, 2), -2)

    def test_355_example_already_reduced(self):
        params = Parameters([3, 5, 5])
        x = normal_form(params, [2, 2, 3], 0)
        assert (x.arms, x.c_coeff) == ((2, 2, 3), 0)

    def test_idempotent(self):
        rng = random.Random(1)
        params = Parameters([2, 3, 5])
        for _ in range(50):
            x = rand_element(rng, params)
            assert normal_form(params, x.arms, x.c_coeff) == x

    @pytest.mark.parametrize(
        "coeffs, c", [([1.9, Fraction(7, 2), 3], 0), ([1, 3, 3], 0.5), ([1, 3, 3], Fraction(1))]
    )
    def test_rejects_non_integer_coefficients(self, coeffs, c):
        # refused, not truncated to 1x1 + 3x2 + 3x3
        with pytest.raises(ParameterError):
            normal_form(Parameters([3, 5, 5]), coeffs, c)

    def test_wrong_length(self):
        with pytest.raises(ParameterError):
            normal_form(Parameters([2, 3]), [1], 0)


class TestGroupLaws:
    def test_scale_six_omega_233(self):
        params = Parameters([2, 3, 3])
        omega = special_elements(params).omega
        assert l_scale(6, omega) == l_neg(c_element(params))

    def test_scale_31_omega_235(self):
        params = Parameters([2, 3, 5])
        sp = special_elements(params)
        assert l_scale(31, sp.omega) == l_neg(sp.s)

    def test_add_neg_is_zero(self):
        rng = random.Random(2)
        params = Parameters([2, 4, 5])
        for _ in range(50):
            x = rand_element(rng, params)
            assert l_add(x, l_neg(x)) == normal_form(params, [0] * params.n)

    def test_commutative_associative(self):
        rng = random.Random(3)
        params = Parameters([3, 3, 4])
        for _ in range(50):
            x, y, z = (rand_element(rng, params) for _ in range(3))
            assert l_add(x, y) == l_add(y, x)
            assert l_add(l_add(x, y), z) == l_add(x, l_add(y, z))

    def test_weight_times_generator_is_c(self):
        params = Parameters([2, 3, 7])
        for i, p in enumerate(params.weights):
            assert l_scale(p, generator(params, i)) == c_element(params)

    def test_mismatched_weights(self):
        a = normal_form(Parameters([2, 3]), [0, 0])
        b = normal_form(Parameters([2, 4]), [0, 0])
        with pytest.raises(ParameterError):
            l_add(a, b)


class TestOrder:
    def test_s_positive_omega_not(self):
        params = Parameters([2, 3, 3])
        sp = special_elements(params)
        assert is_positive(sp.s)
        assert not is_positive(sp.omega)
        assert is_positive(sp.c)

    def test_positivity_xor(self):
        # both x and -x positive only on the a = 0 slice (torsion-like wall)
        rng = random.Random(4)
        params = Parameters([2, 4, 6])
        for _ in range(100):
            x = rand_element(rng, params)
            if is_positive(x) and is_positive(l_neg(x)):
                assert x.c_coeff == 0 and l_neg(x).c_coeff == 0

    def test_interval(self):
        params = Parameters([3, 5, 5])
        assert in_interval_0_c(l_scale(2, generator(params, 0)))
        assert not in_interval_0_c(l_add(generator(params, 0), generator(params, 1)))
        assert in_interval_0_c(c_element(params))

    def test_interval_matches_definition(self):
        rng = random.Random(5)
        params = Parameters([2, 3, 4])
        c = c_element(params)
        for _ in range(100):
            x = rand_element(rng, params)
            expected = is_positive(x) and is_positive(l_add(c, l_neg(x)))
            assert in_interval_0_c(x) == expected


class TestTorsion:
    def test_torsion_in_22(self):
        params = Parameters([2, 2])
        x = normal_form(params, [1, -1], 0)
        assert (x.arms, x.c_coeff) == ((1, 1), -1)
        assert is_torsion(x)
        assert l_scale(2, x) == normal_form(params, [0] * params.n)

    def test_c_not_torsion(self):
        params = Parameters([2, 2])
        assert not is_torsion(c_element(params))

    def test_s_not_torsion(self):
        params = Parameters([2, 3, 3])
        assert not is_torsion(special_elements(params).s)


class TestSpecialElements:
    def test_omega_values(self):
        sp = special_elements(Parameters([2, 3, 3]))
        assert (sp.omega.arms, sp.omega.c_coeff) == ((1, 2, 2), -2)

    def test_s_a(self):
        sp = special_elements(Parameters([2, 3, 4]))
        assert sp.s_a(1) == LElement((2, 3, 4), (1, 1, 1), 1)
        with pytest.raises(PreconditionError):
            sp.s_a(-1)

    def test_coxeter_family(self):
        # (h(m-2)+1) * omega = -(s + (m-3)c) across the three Dynkin triples
        for weights, h in [([2, 3, 3], 6), ([2, 3, 4], 12), ([2, 3, 5], 30)]:
            sp = special_elements(Parameters(weights))
            assert l_scale(h + 1, sp.omega) == l_neg(sp.s)
            for m in range(3, 9):
                lhs = l_scale(h * (m - 2) + 1, sp.omega)
                assert lhs == l_neg(sp.s_a(m - 3))


class TestCoprime:
    def test_coprime_355(self):
        params = Parameters([3, 5, 5])
        assert coprime_criterion(params, normal_form(params, [2, 2, 3], 0))

    def test_not_coprime_24(self):
        params = Parameters([2, 4])
        assert not coprime_criterion(params, normal_form(params, [0, 2], 1))

    def test_s_is_coprime(self):
        params = Parameters([2, 3, 3])
        assert coprime_criterion(params, special_elements(params).s)

    def test_torsion_rejected(self):
        params = Parameters([2, 2])
        with pytest.raises(PreconditionError):
            coprime_criterion(params, normal_form(params, [1, -1], 0))


class TestReduceParameters:
    def test_24_example(self):
        params = Parameters([2, 4])
        x = normal_form(params, [0, 2], 1)
        rparams, rx = reduce_parameters(params, x)
        assert rparams.weights == (2,)
        assert rparams.points == (params.points[1],)
        assert (rx.arms, rx.c_coeff) == ((1,), 1)

    def test_coprime_input_unchanged(self):
        params = Parameters([3, 5, 5])
        x = normal_form(params, [2, 2, 3], 0)
        rparams, rx = reduce_parameters(params, x)
        assert rparams == params
        assert rx.arms == x.arms and rx.c_coeff == x.c_coeff

    def test_233_single_arm(self):
        params = Parameters([2, 3, 3])
        x = normal_form(params, [1, 0, 0], 2)
        rparams, rx = reduce_parameters(params, x)
        assert rparams.weights == (2,)
        assert (rx.arms, rx.c_coeff) == ((1,), 2)

    def test_output_coprime_and_idempotent(self):
        rng = random.Random(6)
        for _ in range(60):
            weights = [rng.randint(2, 8) for _ in range(rng.randint(1, 4))]
            params = Parameters(weights)
            x = rand_element(rng, params)
            if is_torsion(x):
                continue
            rparams, rx = reduce_parameters(params, x)
            assert coprime_criterion(rparams, rx)
            assert rx.c_coeff == x.c_coeff
            again = reduce_parameters(rparams, rx)
            assert again == (rparams, rx)

    def test_graded_dims_agree(self):
        # the independent oracle: Z-graded Hilbert functions match in low degrees
        cases = [
            ([2, 4], [0, 2], 1),
            ([2, 3, 3], [1, 0, 0], 2),
            ([4, 6], [2, 3], 1),
        ]
        for weights, arms, c in cases:
            params = Parameters(weights)
            x = normal_form(params, arms, c)
            rparams, rx = reduce_parameters(params, x)
            for k in range(9):
                assert graded_dim(params, l_scale(k, x)) == graded_dim(
                    rparams, l_scale(k, rx)
                )


class TestJson:
    def test_element_round_trip(self):
        params = Parameters([3, 5, 5])
        x = normal_form(params, [2, 2, 3], 0)
        blob = json.dumps(x.to_json(), sort_keys=True)
        assert blob == '{"c": 0, "xi": [2, 2, 3]}'
        obj = json.loads(blob)
        assert normal_form(params, obj["xi"], obj["c"]) == x
