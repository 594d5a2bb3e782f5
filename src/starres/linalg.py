"""Exact linear algebra over the rationals, built on one elimination routine.

Every row is scaled to integers once (by the lcm of its denominators; rows
that are already ``int`` pass straight through) and fed to one fraction-free
Gauss-Jordan elimination in the manner of Bareiss (1968): every intermediate
entry is a minor of the input, so every division is exact.  ``rref``, ``det``
and ``solve`` are all read off that routine, which stops as soon as it holds
a pivot in every column it may pivot in; a full-rank ``rref`` is then the
identity.  No modular arithmetic, no floats and no tolerances appear
anywhere; results are tuples of Fractions, hashable and reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm, prod

Row = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _integer_row(row) -> tuple[int, list[int]]:
    """(s, s * row) with s > 0 the least scale making every entry an integer.

    Entries are ints or Fractions; a row of ints passes straight through.
    """
    if all(type(x) is int for x in row):
        return 1, row
    # unpack a list, not a generator: CPython sizes a generator's tuple by
    # resizing, which strands tuples in its per-size free lists and made the
    # peak memory of long runs creep upwards
    scale = lcm(*[x.denominator for x in row])
    return scale, [x.numerator * (scale // x.denominator) for x in row]


def _eliminate(rows, limit: int) -> tuple[list[tuple[int, list[int]]], int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, one row at a time.

    Returns ``(pivots, d)``.  ``pivots`` holds ``(column, row)`` in the order
    the pivots were found; each pivot row has ``d`` in its own column and 0 in
    every other pivot column, so ``row / d`` is its reduced row echelon row.
    ``d`` is the determinant of the pivot rows restricted to the pivot
    columns, both in that order.  Pivots are taken among the first ``limit``
    columns; a row that reduces to zero there is dropped, and so is every row
    after the ``limit``-th pivot, as each of them would reduce to zero there.
    """
    pivots: list[tuple[int, list[int]]] = []
    d = 1
    for row in rows:
        # d * row minus the pivot rows it meets: a bordered minor, no division
        new = [d * x for x in row] if d != 1 else list(row)
        for col, prow in pivots:
            f = row[col]
            if f:
                new = [x - f * y for x, y in zip(new, prow)]
        col = next((j for j in range(limit) if new[j]), None)
        if col is None:
            continue
        dn = new[col]
        for k, (pcol, prow) in enumerate(pivots):
            f = prow[col]
            if f:
                pivots[k] = (pcol, [(dn * x - f * y) // d for x, y in zip(prow, new)])
            else:
                pivots[k] = (pcol, [dn * x // d for x in prow])
        pivots.append((col, new))
        d = dn
        if len(pivots) == limit:
            break
    return pivots, d


def _permutation_sign(perm) -> int:
    sign = 1
    for i, a in enumerate(perm):
        for b in perm[i + 1:]:
            if a > b:
                sign = -sign
    return sign


@cache
def _identity(n: int) -> tuple[Row, ...]:
    """The n x n identity; shared, as its rows and entries are immutable."""
    return tuple([tuple([_ONE if i == j else _ZERO for j in range(n)]) for i in range(n)])


def rref(rows) -> tuple[Row, ...]:
    """Reduced row echelon form; zero rows dropped, pivots normalized to 1.

    Rows of full column rank give the shared identity, with no pivot row
    divided out.
    """
    mat = [_integer_row(row)[1] for row in rows]
    if not mat:
        return ()
    ncols = len(mat[0])
    pivots, d = _eliminate(mat, ncols)
    if len(pivots) == ncols:
        return _identity(ncols)
    return tuple([tuple([Fraction(x, d) for x in prow]) for _col, prow in sorted(pivots)])


def _square(matrix) -> int:
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    return n


def det(matrix) -> Fraction:
    """Determinant, exact: the last pivot of the fraction-free elimination."""
    n = _square(matrix)
    scaled = [_integer_row(row) for row in matrix]
    pivots, d = _eliminate([row for _s, row in scaled], n)
    if len(pivots) < n:
        return Fraction(0)
    sign = _permutation_sign([col for col, _row in pivots])
    return Fraction(sign * d, prod([s for s, _row in scaled]))


def solve(matrix, rhs) -> tuple[Fraction, ...]:
    """Unique solution of M x = rhs; raises ValueError when M is singular."""
    n = _square(matrix)
    aug = [_integer_row(list(row) + [b])[1] for row, b in zip(matrix, rhs)]
    pivots, d = _eliminate(aug, n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    sol = [_ZERO] * n
    for col, prow in pivots:
        sol[col] = Fraction(prow[n], d)
    return tuple(sol)
