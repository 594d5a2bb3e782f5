"""Intersection theory on labelled trees.

The pairing matrix of a labelled tree, negative definiteness, the
fundamental cycle by Laufer increments (with a brute-force search as
independent oracle), reducedness, and the rational canonical cycle.

One pass reads the entries once: it checks that the matrix is symmetric
and that its off-diagonal support is a forest, keeps neighbour lists, roots
every component at its lowest vertex and eliminates from the leaves to the
roots in integers: D_v, the determinant on v's subtree, and R_v, the
product of D_c over v's children c, with no division:

    D_v = m[v][v] R_v - sum over c of m[v][c]^2 R_c prod_{c' != c} D_c'.

Nothing fills in, the roots' D multiply to det m, and v's pivot is D_v/R_v.
Everything else reads D and R, the neighbour lists and single entries:

- the matrix is negative definite iff every D_v * R_v < 0, i.e. every pivot
  is negative (Sylvester's criterion in elimination order); a zero D makes
  some product zero;
- the canonical cycle is a forward sweep over the pivots, as Fractions,
  plus a back-substitution from the roots;
- the Laufer loop keeps Z . E_i for every vertex and, after an increment,
  revisits only the incremented vertex and its neighbours (Laufer 1972).

Every public function makes its own pass.  The quiver of
``reconalg.quiver_from_intersection`` needs only Z_f from here: the
pairings Z_K . E_i = E_i^2 + 2 are fixed by adjunction, so it solves for
no canonical cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, product
from typing import NamedTuple

from .errors import PreconditionError


@dataclass(frozen=True)
class IntersectionMatrix:
    """Symmetric matrix: diagonal = self-intersections, off-diagonal = edge counts."""

    entries: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.entries)


def matrix_from_graph(graph) -> IntersectionMatrix:
    """Build the pairing matrix from anything carrying .labels and .edges."""
    k = len(graph.labels)
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        rows[i][i] = graph.labels[i]
    for i, j in graph.edges:
        rows[i][j] += 1
        rows[j][i] += 1
    # a tuple of a list, not of a generator: see linalg._integer_row
    return IntersectionMatrix(tuple([tuple(r) for r in rows]))


class _Tree(NamedTuple):
    """The leaf-to-root elimination of a forest-shaped symmetric matrix."""

    order: list[int]  # breadth first from each root: parents before children
    parent: list[int]  # -1 at a root
    neighbours: list[list[tuple[int, int]]]  # (j, m[i][j]) for j != i, m[i][j] != 0
    dets: list[int]  # determinant of m on the subtree of each vertex
    rest: list[int]  # product of the children's dets; the pivot is dets / rest


def _eliminate_tree(m: IntersectionMatrix) -> _Tree:
    entries = m.entries
    k = len(entries)
    # every row equal to its column, with as many columns as rows; no tuple
    # is built from an iterator (see linalg._integer_row)
    columns = list(zip(*entries))
    if len(columns) != k or any(tuple(row) != col for row, col in zip(entries, columns)):
        raise PreconditionError("intersection matrix must be square and symmetric")
    neighbours = [
        [(j, row[j]) for j in compress(range(k), row) if j != i]
        for i, row in enumerate(entries)
    ]
    parent = [-1] * k
    seen = [False] * k
    order: list[int] = []
    for root in range(k):
        if seen[root]:
            continue
        seen[root] = True
        head = len(order)
        order.append(root)
        while head < len(order):
            v = order[head]
            head += 1
            for j, _w in neighbours[v]:
                if j == parent[v]:
                    continue
                if seen[j]:
                    raise PreconditionError("the off-diagonal support of the matrix must be a forest")
                seen[j] = True
                parent[j] = v
                order.append(j)
    dets = [0] * k
    rest = [0] * k
    for v in reversed(order):
        d, r = entries[v][v], 1
        for c, w in neighbours[v]:
            if c != parent[v]:
                d, r = d * dets[c] - w * w * rest[c] * r, r * dets[c]
        dets[v], rest[v] = d, r
    return _Tree(order, parent, neighbours, dets, rest)


def _definite(tree: _Tree) -> bool:
    return all(d * r < 0 for d, r in zip(tree.dets, tree.rest))


def is_negative_definite(m: IntersectionMatrix) -> bool:
    """Every leaf-to-root pivot D_v / R_v is negative, checked in integers.

    Raises PreconditionError unless the matrix is symmetric with an
    off-diagonal support that is a forest.
    """
    return _definite(_eliminate_tree(m))


def pair(m: IntersectionMatrix, a, b) -> Fraction:
    """The bilinear pairing a^T M b of two cycles, as a Fraction.

    Only the nonzero components of a and b and the nonzero entries of their
    rows and columns are summed.
    """
    if len(a) != m.size or len(b) != m.size:
        raise PreconditionError("cycle length does not match the matrix")
    b_nonzero = [(j, Fraction(bj)) for j, bj in enumerate(b) if bj]
    total = Fraction(0)
    for ai, row in zip(a, m.entries):
        if ai:
            total += Fraction(ai) * sum([row[j] * bj for j, bj in b_nonzero if row[j]])
    return total


def _pair_with_vertex(m: IntersectionMatrix, z, i: int):
    return sum(zj * m.entries[i][j] for j, zj in enumerate(z))


def fundamental_cycle(m: IntersectionMatrix) -> tuple[int, ...]:
    """Laufer increments from the lowest-index vertex.

    Start at Z = E_0; while some Z . E_i > 0, add E_i.  The result is the
    unique smallest positive cycle pairing nonpositively with every vertex,
    independent of increment order.  ``work`` holds every vertex that was
    hot (Z . E_i > 0) when last touched; an increment of E_i changes Z . E_j
    only for j = i and the neighbours of i, so only those are pushed again.
    """
    tree = _eliminate_tree(m)
    if not _definite(tree):
        raise PreconditionError("fundamental cycle needs a negative definite matrix")
    entries, neighbours = m.entries, tree.neighbours
    z = [0] * m.size
    z[0] = 1
    dots = [row[0] for row in entries]
    work = [i for i, d in enumerate(dots) if d > 0]
    while work:
        i = work.pop()
        if dots[i] <= 0:
            continue
        z[i] += 1
        dots[i] += entries[i][i]
        if dots[i] > 0:
            work.append(i)
        for j, w in neighbours[i]:
            dots[j] += w
            if dots[j] > 0:
                work.append(j)
    return tuple(z)


# The largest box fundamental_cycle_brute enumerates: 4^10 points, ten
# vertices at the default bound.
_BRUTE_MAX_POINTS = 4**10


def fundamental_cycle_brute(m: IntersectionMatrix, bound: int = 4) -> tuple[int, ...]:
    """Independent oracle: componentwise minimum over the box [1, bound]^V.

    Enumerates every candidate cycle in the box satisfying Z . E_i <= 0 for
    all i and returns the coordinatewise minimum, verifying it is itself a
    candidate (the theory guarantees a unique smallest element).  A box of
    more than 4^10 points raises PreconditionError before anything is
    enumerated.
    """
    points = bound**m.size
    if points > _BRUTE_MAX_POINTS:
        raise PreconditionError(
            f"brute-force box [1, {bound}]^{m.size} has {points} points, more than 4^10"
        )
    candidates = [
        z
        for z in product(range(1, bound + 1), repeat=m.size)
        if all(_pair_with_vertex(m, z, i) <= 0 for i in range(m.size))
    ]
    if not candidates:
        raise PreconditionError(f"no candidate cycle within the box [1, {bound}]^V")
    low = tuple(min(z[i] for z in candidates) for i in range(m.size))
    if any(_pair_with_vertex(m, low, i) > 0 for i in range(m.size)):
        raise PreconditionError("coordinatewise minimum is not itself a candidate")
    return low


def is_reduced(z) -> bool:
    """All coefficients one: the cycle is reduced with full support."""
    coeffs = []
    for c in z:
        f = Fraction(c)
        if f.denominator != 1:
            raise PreconditionError(f"reducedness is only defined for integer cycles, got {c}")
        coeffs.append(f.numerator)
    return all(c == 1 for c in coeffs)


def canonical_cycle(m: IntersectionMatrix) -> tuple[Fraction, ...]:
    """The rational cycle Z with Z . E_i = E_i^2 + 2 for every vertex.

    Solved over the pivots D_v / R_v: leaves up, then roots down.  Raises
    PreconditionError unless the matrix is symmetric with a forest as
    off-diagonal support and every subtree determinant D_v is nonzero.  Only
    a matrix that is neither negative nor positive definite can have a zero
    D_v, and it is refused even where it is invertible.
    """
    order, parent, _neighbours, dets, rest = _eliminate_tree(m)
    if not all(dets):
        raise PreconditionError("canonical cycle needs nonzero leaf-to-root pivots")
    pivots = [Fraction(d, r) for d, r in zip(dets, rest)]
    entries = m.entries
    rhs = [entries[i][i] + 2 for i in range(m.size)]
    for v in reversed(order):
        p = parent[v]
        if p >= 0:
            rhs[p] -= entries[p][v] * rhs[v] / pivots[v]
    z = [None] * m.size
    for v in order:
        p = parent[v]
        z[v] = (rhs[v] if p < 0 else rhs[v] - entries[v][p] * z[p]) / pivots[v]
    return tuple(z)
