"""Hirzebruch-Jung continued fractions and the i-series combinatorics.

Three independent characterizations of the set I(r, a) live here: the
defining recursion, a brute-force monomial-grid enumeration, and a residue
criterion.  They are cross-checked against each other by the test suite and
by ``starres sweep`` (``sweeps.sweep_iseries``), so any one of them can serve
as the oracle for the other two.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .errors import PreconditionError


class HJExpansion(NamedTuple):
    """r/a = alphas[0] - 1/(alphas[1] - 1/(...)), every entry >= 2.

    The expansion is empty exactly when a = r.
    """

    r: int
    a: int
    alphas: tuple[int, ...]


class ISeries(NamedTuple):
    """A sequence attached to r/a; for the i-series it strictly decreases to 0."""

    r: int
    a: int
    terms: tuple[int, ...]

    @property
    def as_set(self) -> frozenset[int]:
        return frozenset(self.terms)


class WeightGrid(NamedTuple):
    """The monomial region used by the grid characterization of I(r, a).

    ``region`` maps exponent pairs (i, j) to the weight (i + a*j) mod r.  It
    consists of the monomials x^i y^j, i,j >= 1, not divisible by any
    invariant monomial of the 1/r(1, a) action (the corner region left after
    removing the two axes).
    """

    r: int
    a: int
    region: dict[tuple[int, int], int]


def _check_range(r: int, a: int, allow_equal: bool = True) -> None:
    if r < 1 or a < 1 or a > r or (not allow_equal and a == r):
        bound = "<=" if allow_equal else "<"
        raise PreconditionError(f"need 1 <= a {bound} r, got a={a}, r={r}")


def hj_expand(r: int, a: int) -> HJExpansion:
    """The unique all->=2 continued fraction expansion of r/a.

    Invariant under common factors: the pair (r, a) and (r/g, a/g) expand
    identically.
    """
    _check_range(r, a)
    alphas = []
    num, den = r, a
    while den > 0 and num > den:
        q = -(-num // den)
        alphas.append(q)
        num, den = den, q * den - num
    return HJExpansion(r, a, tuple(alphas))


def hj_eval(expansion) -> Fraction:
    """Evaluate an expansion back to a rational (in lowest terms).

    Accepts an HJExpansion or a bare sequence of entries; the empty
    expansion evaluates to 1.
    """
    alphas = expansion.alphas if isinstance(expansion, HJExpansion) else tuple(expansion)
    if any(q < 2 for q in alphas):
        raise PreconditionError(f"all entries must be >= 2, got {alphas}")
    if not alphas:
        return Fraction(1)
    val = Fraction(alphas[-1])
    for q in reversed(alphas[:-1]):
        val = q - 1 / val
    return val


def i_series(r: int, a: int) -> ISeries:
    """i_0 = r, i_1 = a, i_t = alpha_{t-1} * i_{t-1} - i_{t-2}; empty for a = r."""
    _check_range(r, a)
    if a == r:
        return ISeries(r, a, ())
    alphas = hj_expand(r, a).alphas
    terms = [r, a]
    for t in range(2, len(alphas) + 2):
        terms.append(alphas[t - 2] * terms[-1] - terms[-2])
    return ISeries(r, a, tuple(terms))


def i_set(r: int, a: int) -> frozenset[int]:
    return i_series(r, a).as_set


def ito_region(r: int, a: int) -> WeightGrid:
    """Brute-force the off-axis monomial region for the 1/r(1, a) action.

    A monomial x^i y^j has weight (i + a*j) mod r; it is dropped when some
    nonunit invariant monomial divides it.  Those invariants are exactly
    x^((-a*l) mod r) y^l for 1 <= l < r, so (i, j) survives exactly when i
    is below the staircase height h_j = min over l <= j of (-a*l) mod r.
    The heights never increase, so each row i runs over the columns j with
    h_j > i, and the region is read off in O(r + |region|) without testing
    any cell against the invariants.
    """
    _check_range(r, a, allow_equal=False)
    if gcd(r, a) != 1:
        raise PreconditionError(f"grid characterization needs gcd(r, a) = 1, got ({r}, {a})")
    heights = []  # heights[j - 1] = h_j, for the columns j with h_j > 1
    h = r
    for l in range(1, r):
        h = min(h, -a * l % r)
        if h == 1:
            break
        heights.append(h)
    region = {}
    width = len(heights)
    for i in range(1, heights[0] if heights else 1):
        while heights[width - 1] <= i:
            width -= 1
        for j in range(1, width + 1):
            region[(i, j)] = (i + a * j) % r
    return WeightGrid(r, a, region)


def ito_oracle(r: int, a: int) -> frozenset[int]:
    """Values in [0, r] missing from the region's weights; equals i_set(r, a)."""
    missing = set(ito_region(r, a).region.values())
    return frozenset(u for u in range(r + 1) if u not in missing)


def residue_criterion(r: int, a: int, u: int) -> bool:
    """Residue test for u belonging to I(r, r-a).

    True iff for every l >= 1 some m in [1, l] satisfies
    [u + l*a - 1]_r >= [m*a - 1]_r, that is, iff [u + l*a - 1]_r is at least
    the running minimum of [m*a - 1]_r over m <= l, which is kept as l grows:
    O(r) per u.  Only l in [1, r] need checking: the residues [m*a - 1]_r for
    m in [1, r] already include 0 (gcd(r, a) = 1), so larger l hold
    automatically by periodicity.
    """
    if gcd(r, a) != 1:
        raise PreconditionError(f"residue criterion needs gcd(r, a) = 1, got ({r}, {a})")
    if not 0 <= u <= r - 1:
        raise PreconditionError(f"need 0 <= u <= r-1, got u={u}, r={r}")
    low = r
    for l in range(1, r + 1):
        low = min(low, (l * a - 1) % r)
        if (u + l * a - 1) % r < low:
            return False
    return True
