"""The fraction-free kernel against a plain Fraction Gauss-Jordan reference."""

import random
from fractions import Fraction

import pytest

from starres.linalg import _eliminate, _identity, det, rref, solve


def ref_rref(rows):
    """Textbook Gauss-Jordan over Fractions: the slow route kept as oracle."""
    out, pivot_cols = [], []
    for row in rows:
        row = [Fraction(x) for x in row]
        for prow, pcol in zip(out, pivot_cols):
            f = row[pcol]
            row = [x - f * y for x, y in zip(row, prow)]
        col = next((j for j, x in enumerate(row) if x != 0), None)
        if col is None:
            continue
        row = [x / row[col] for x in row]
        for prow in out:
            f = prow[col]
            prow[:] = [x - f * y for x, y in zip(prow, row)]
        out.append(row)
        pivot_cols.append(col)
    order = sorted(range(len(out)), key=lambda k: pivot_cols[k])
    return tuple(tuple(out[k]) for k in order)


def ref_det(matrix):
    mat = [[Fraction(x) for x in row] for row in matrix]
    n, result = len(mat), Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            result = -result
        result *= mat[col][col]
        for r in range(col + 1, n):
            f = mat[r][col] / mat[col][col]
            mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
    return result


def ref_solve(matrix, rhs):
    n = len(matrix)
    reduced = ref_rref([list(row) + [b] for row, b in zip(matrix, rhs)])
    if len(reduced) != n or any(all(x == 0 for x in row[:n]) for row in reduced):
        raise ValueError("singular")
    return tuple(row[n] for row in reduced)


def random_entry(rng, fractions):
    num = rng.randint(-9, 9)
    return Fraction(num, rng.randint(1, 6)) if fractions else num


def random_matrix(rng, nrows, ncols, rank=None, fractions=False):
    """A random matrix, of the given rank when one is asked for (generically)."""
    if rank == 0:
        return [[0] * ncols for _ in range(nrows)]
    if rank is None:
        return [[random_entry(rng, fractions) for _ in range(ncols)] for _ in range(nrows)]
    left = random_matrix(rng, nrows, rank, fractions=fractions)
    right = random_matrix(rng, rank, ncols, fractions=fractions)
    return [
        [sum((a * b for a, b in zip(row, col)), 0) for col in zip(*right)] for row in left
    ]


SHAPES = [(1, 1), (2, 3), (3, 2), (4, 4), (6, 3), (3, 6), (12, 5), (7, 7)]


@pytest.mark.parametrize("fractions", [False, True])
@pytest.mark.parametrize("nrows, ncols", SHAPES)
def test_rref_full_rank(nrows, ncols, fractions):
    rng = random.Random(f"full:{nrows}:{ncols}:{fractions}")
    for _ in range(5):
        m = random_matrix(rng, nrows, ncols, fractions=fractions)
        assert rref(m) == ref_rref(m)


@pytest.mark.parametrize("fractions", [False, True])
@pytest.mark.parametrize("nrows, ncols", SHAPES)
def test_rref_rank_deficient(nrows, ncols, fractions):
    rng = random.Random(f"deficient:{nrows}:{ncols}:{fractions}")
    for rank in range(min(nrows, ncols)):
        m = random_matrix(rng, nrows, ncols, rank=rank, fractions=fractions)
        got = rref(m)
        assert got == ref_rref(m)
        assert len(got) <= rank


def test_rref_results_are_fractions():
    for m in ([[2, 4], [1, 3]], [[2, 4], [1, 2]], [[Fraction(1, 2), 1]]):
        assert all(type(x) is Fraction for row in rref(m) for x in row)


def test_rref_empty_and_zero_columns():
    assert rref([]) == ()
    assert rref([[], []]) == ()
    assert rref([[0, 0], [0, 0]]) == ()


def test_rref_banded_shift_rows():
    # t-shifts of one binary form, the shape the speciality oracle stacks
    form = [3, -1, 0, 5]
    for nshifts in range(1, 6):
        dim = len(form) + nshifts - 1
        rows = [[0] * s + form + [0] * (dim - len(form) - s) for s in range(nshifts)]
        assert rref(rows) == ref_rref(rows)
        assert len(rref(rows + rows)) == nshifts


def test_forced_fallback_full_rank_over_q():
    # rank 2 over Q but rank 1 modulo the prime 2^61 - 1: exact elimination sees it
    prime = (1 << 61) - 1
    m = [[prime, 0], [0, 1]]
    assert rref(m) == ((1, 0), (0, 1))
    assert rref(m) == ref_rref(m)
    assert det(m) == prime
    assert solve(m, [prime, 2]) == (1, 2)


def test_elimination_stops_at_full_rank():
    def rows():
        yield [2, 1]
        yield [1, 1]
        raise AssertionError("row read after the last pivot")

    pivots, d = _eliminate(rows(), 2)
    assert [col for col, _row in pivots] == [0, 1] and d == 1
    rng = random.Random("full rank")
    for _ in range(10):
        m = random_matrix(rng, 6, 4, rank=4)
        assert rref(m) is _identity(4) and ref_rref(m) == _identity(4)


@pytest.mark.parametrize("fractions", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_det_matches_reference(n, fractions):
    rng = random.Random(f"det:{n}:{fractions}")
    for rank in (n, n, n - 1):
        m = random_matrix(rng, n, n, rank=rank, fractions=fractions)
        assert det(m) == ref_det(m)


def test_det_row_order_sign():
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert det([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1


def test_det_empty_and_non_square():
    assert det([]) == 1
    with pytest.raises(ValueError):
        det([[1, 2]])


@pytest.mark.parametrize("fractions", [False, True])
@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_solve_matches_reference(n, fractions):
    rng = random.Random(f"solve:{n}:{fractions}")
    for _ in range(5):
        m = random_matrix(rng, n, n, fractions=fractions)
        b = [random_entry(rng, fractions) for _ in range(n)]
        try:
            expected = ref_solve(m, b)
        except ValueError:
            with pytest.raises(ValueError):
                solve(m, b)
            continue
        got = solve(m, b)
        assert got == expected
        assert all(sum(a * x for a, x in zip(row, got)) == rhs for row, rhs in zip(m, b))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_solve_singular_raises(n):
    rng = random.Random(f"singular:{n}")
    m = random_matrix(rng, n, n, rank=n - 1)
    for b in ([0] * n, [1] * n):
        with pytest.raises(ValueError):
            solve(m, b)
        with pytest.raises(ValueError):
            ref_solve(m, b)


def test_solve_empty():
    assert solve([], []) == ()
