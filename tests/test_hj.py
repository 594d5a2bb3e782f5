"""Continued fractions, i/j-series, and the three-way oracle equivalence."""

from fractions import Fraction
from math import gcd

import pytest

from starres.errors import PreconditionError
from starres.hj import (
    hj_eval,
    hj_expand,
    i_series,
    i_set,
    ito_oracle,
    ito_region,
    j_series,
    residue,
    residue_criterion,
)


class TestExpand:
    def test_17_10(self):
        assert hj_expand(17, 10).alphas == (2, 4, 2, 2)

    def test_5_3(self):
        assert hj_expand(5, 3).alphas == (2, 3)

    def test_all_twos(self):
        assert hj_expand(4, 3).alphas == (2, 2, 2)

    def test_a_equals_r(self):
        assert hj_expand(7, 7).alphas == ()

    def test_out_of_range(self):
        with pytest.raises(PreconditionError):
            hj_expand(5, 0)
        with pytest.raises(PreconditionError):
            hj_expand(5, 6)

    def test_gcd_invariance(self):
        for r in range(2, 30):
            for a in range(1, r + 1):
                h = gcd(r, a)
                assert hj_expand(r, a).alphas == hj_expand(r // h, a // h).alphas


class TestEval:
    def test_single(self):
        assert hj_eval([3]) == Fraction(3)

    def test_5_3(self):
        assert hj_eval([2, 3]) == Fraction(5, 3)

    def test_17_10(self):
        assert hj_eval([2, 4, 2, 2]) == Fraction(17, 10)

    def test_empty_is_one(self):
        assert hj_eval([]) == 1

    def test_rejects_small_entries(self):
        with pytest.raises(PreconditionError):
            hj_eval([2, 1])

    def test_round_trip(self):
        for r in range(2, 61):
            for a in range(1, r):
                if gcd(r, a) == 1:
                    assert hj_eval(hj_expand(r, a)) == Fraction(r, a)


class TestISeries:
    def test_17_10(self):
        s = i_series(17, 10)
        assert s.terms == (17, 10, 3, 2, 1, 0)
        assert s.as_set == {0, 1, 2, 3, 10, 17}

    def test_5_3(self):
        assert i_series(5, 3).terms == (5, 3, 1, 0)

    def test_r_r_empty(self):
        assert i_set(6, 6) == frozenset()

    def test_strictly_decreasing_to_zero(self):
        for r in range(2, 40):
            for a in range(1, r):
                terms = i_series(r, a).terms
                assert all(x > y for x, y in zip(terms, terms[1:]))
                assert terms[-1] == 0
                assert terms[-2] == gcd(r, a)

    def test_gcd_scaling(self):
        for r in range(2, 25):
            for a in range(1, r):
                h = gcd(r, a)
                scaled = tuple(h * t for t in i_series(r // h, a // h).terms)
                assert i_series(r, a).terms == scaled

    def test_full_interval_iff_a_is_r_minus_1(self):
        for r in range(2, 21):
            for a in range(1, r):
                full = i_set(r, a) == frozenset(range(r + 1))
                assert full == (a == r - 1), (r, a)


class TestJSeries:
    def test_5_2(self):
        assert j_series(5, 2).terms == (0, 1, 3, 5)

    def test_2_1(self):
        assert j_series(2, 1).terms == (0, 1, 2)

    def test_17_7_is_reverse(self):
        assert j_series(17, 7).terms == tuple(reversed(i_series(17, 10).terms))

    def test_rejects_a_equal_r(self):
        with pytest.raises(PreconditionError):
            j_series(5, 5)


def _coprime_pairs(rmax):
    return [(r, a) for r in range(2, rmax + 1) for a in range(1, r) if gcd(r, a) == 1]


def _region_by_scan(r, a):
    """The region by testing every cell against every nonunit invariant."""
    invariants = [
        (i, j)
        for i in range(r)
        for j in range(r)
        if (i, j) != (0, 0) and (i + a * j) % r == 0
    ]
    region = {}
    for i in range(1, r):
        for j in range(1, r):
            if any(i >= k and j >= l for k, l in invariants):
                continue
            region[(i, j)] = (i + a * j) % r
    return region


def _residue_by_rescan(r, a, u):
    """The residue criterion rescanning [m*a - 1]_r over m <= l for every l."""
    for l in range(1, r + 1):
        lhs = residue(u + l * a - 1, r)
        if all(lhs < residue(m * a - 1, r) for m in range(1, l + 1)):
            return False
    return True


class TestGrid:
    def test_17_10(self):
        assert ito_oracle(17, 10) == {0, 1, 2, 3, 10, 17}

    def test_2_1_region_empty(self):
        assert ito_region(2, 1).region == {}
        assert ito_oracle(2, 1) == {0, 1, 2}

    def test_5_2(self):
        assert ito_oracle(5, 2) == i_set(5, 2) == {0, 1, 2, 5}

    def test_region_avoids_invariants_and_axes(self):
        grid = ito_region(7, 3)
        for (i, j), weight in grid.region.items():
            assert i >= 1 and j >= 1
            assert weight == (i + 3 * j) % 7
            assert weight != 0

    def test_17_10_region_shape(self):
        # staircase with columns of heights 6, 6, 3, 3
        grid = ito_region(17, 10)
        columns = {}
        for (i, j), _ in grid.region.items():
            columns.setdefault(j, set()).add(i)
        assert {j: sorted(rows) for j, rows in columns.items()} == {
            1: [1, 2, 3, 4, 5, 6],
            2: [1, 2, 3, 4, 5, 6],
            3: [1, 2, 3],
            4: [1, 2, 3],
        }
        weights = {w for _, w in grid.region.items()}
        assert weights == set(range(4, 10)) | set(range(11, 17)) | {7, 8, 9, 14, 15, 16}

    def test_rejects_non_coprime(self):
        with pytest.raises(PreconditionError):
            ito_oracle(6, 2)

    def test_staircase_equals_cell_scan(self):
        pairs = _coprime_pairs(60)
        assert len(pairs) == 1101
        for r, a in pairs:
            region = ito_region(r, a).region
            assert region == _region_by_scan(r, a), (r, a)


class TestResidue:
    def test_values(self):
        assert residue(-1, 5) == 4
        assert residue(7, 5) == 2
        assert residue(0, 3) == 0

    def test_criterion_examples(self):
        assert residue_criterion(5, 2, 1)  # 1 in I(5, 3)
        assert not residue_criterion(5, 2, 2)  # 2 not in I(5, 3)
        for r, a in [(7, 2), (9, 4), (11, 3)]:
            assert residue_criterion(r, a, 0)

    def test_rejects_non_coprime(self):
        with pytest.raises(PreconditionError):
            residue_criterion(6, 2, 1)

    def test_running_minimum_equals_rescan(self):
        for r, a in _coprime_pairs(60):
            for u in range(r):
                assert residue_criterion(r, a, u) == _residue_by_rescan(r, a, u), (r, a, u)


class TestOracleTriangle:
    def test_all_three_agree(self):
        for r, a in _coprime_pairs(60):
            rec = i_set(r, a)
            grid = ito_oracle(r, a)
            res = frozenset(u for u in range(r) if residue_criterion(r, r - a, u)) | {r}
            assert rec == grid == res, (r, a)
