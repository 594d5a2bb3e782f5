"""Exact linear algebra over the rationals, built on one elimination routine.

Every row is scaled to integers once (by the lcm of its denominators; rows
that are already ``int`` pass straight through) and fed to one fraction-free
Gauss-Jordan elimination in the manner of Bareiss (1968): every intermediate
entry is a minor of the input, so every division is exact.  ``rref``, ``det``
and ``solve`` are all read off that routine.

Modular arithmetic is used in one place only, to certify full rank: when
``rref`` gets at least as many rows as columns and their rank modulo the
prime 2^61 - 1 equals the number of columns, the rank over Q is full as well
(rank mod p <= rank over Q <= columns), so the answer is the identity.  Any
other outcome falls back to the exact integer elimination.  No floats and no
tolerances appear anywhere; results are tuples of Fractions, hashable and
reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm, prod

Row = tuple[Fraction, ...]

MODULUS = (1 << 61) - 1  # a Mersenne prime

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
    columns; a row that reduces to zero there is dropped.
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
    return pivots, d


def _full_rank_mod_p(rows, ncols: int) -> bool:
    """Whether integer rows of length ncols have rank ncols modulo MODULUS.

    Stops as soon as ncols pivots are found, or once too few rows remain to
    find them.
    """
    p = MODULUS
    pivots: list[tuple[int, list[int]]] = []
    for i, row in enumerate(rows):
        if len(pivots) + len(rows) - i < ncols:
            return False
        r = [x % p for x in row]
        for col, prow in pivots:
            f = r[col]
            if f:
                r = [(x - f * y) % p for x, y in zip(r, prow)]
        col = next((j for j in range(ncols) if r[j]), None)
        if col is None:
            continue
        inv = pow(r[col], -1, p)
        pivots.append((col, [x * inv % p for x in r]))
        if len(pivots) == ncols:
            return True
    return len(pivots) == ncols


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

    Rows certified of full column rank modulo 2^61 - 1 give the identity
    without exact elimination.
    """
    mat = [_integer_row(row)[1] for row in rows]
    if not mat:
        return ()
    ncols = len(mat[0])
    if _full_rank_mod_p(mat, ncols):
        return _identity(ncols)
    pivots, d = _eliminate(mat, ncols)
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
