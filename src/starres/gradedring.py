"""Exact arithmetic in the graded coordinate ring of a weighted projective line.

The ring is C[t0, t1, x_1, ..., x_n] / (x_i^{p_i} - ell_i(t0, t1)) with the
group grading deg x_i = x_i, deg t_j = c.  Elements are kept in reduced form
(every arm exponent below its weight) so each graded piece has the literal
monomial basis t0^j t1^{a-j} * prod x_i^{a_i}.  Coefficients are exact
rationals throughout; only rational points are supported.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import ParameterError, PreconditionError
from .lgroup import LElement, Parameters, _support, l_add

TermKey = tuple[int, int, tuple[int, ...]]


def linear_form(point: tuple[int, int]) -> tuple[Fraction, Fraction]:
    """Coefficients (c0, c1) of the form c0*t0 + c1*t1 attached to a point.

    (1:0) gives t1, (0:1) gives t0, and a general (u:w) gives
    (w/u)*t0 - t1, matching the normalized presentation the Veronese
    generator identities are stated in.
    """
    u, w = point
    if w == 0:
        return Fraction(0), Fraction(1)
    if u == 0:
        return Fraction(1), Fraction(0)
    return Fraction(w, u), Fraction(-1)


def affine_value(point: tuple[int, int]) -> Fraction:
    """The scalar lam with linear form lam*t0 - t1; undefined on (1:0), (0:1)."""
    u, w = point
    if u == 0 or w == 0:
        raise ParameterError(f"point ({u}:{w}) has no affine value in this chart")
    return Fraction(w, u)


@dataclass(frozen=True)
class Monomial:
    """coeff * t0^t0exp * t1^t1exp * prod x_i^arms[i], arms already reduced."""

    coeff: Fraction
    t0: int
    t1: int
    arms: tuple[int, ...]

    def __str__(self) -> str:
        parts = []
        for name, e in (("t0", self.t0), ("t1", self.t1)):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        for i, e in enumerate(self.arms):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e > 1:
                parts.append(f"x{i + 1}^{e}")
        body = "*".join(parts) if parts else "1"
        if self.coeff == 1:
            return body
        if self.coeff == -1:
            return f"-{body}"
        return f"{self.coeff}*{body}"


def _linear_power(c0: Fraction, c1: Fraction, q: int) -> dict[tuple[int, int], Fraction]:
    """(c0*t0 + c1*t1)^q as a dict of t-exponents."""
    out: dict[tuple[int, int], Fraction] = {}
    for k in range(q + 1):
        coef = comb(q, k) * c0**k * c1 ** (q - k)
        if coef != 0:
            out[(k, q - k)] = coef
    return out


class RingElement:
    """A finite rational combination of reduced monomials."""

    __slots__ = ("params", "terms")

    def __init__(self, params: Parameters, terms: dict[TermKey, Fraction]):
        self.params = params
        self.terms = {k: v for k, v in terms.items() if v != 0}

    @classmethod
    def from_monomial(cls, params: Parameters, coeff, t0: int = 0, t1: int = 0, arms=None) -> "RingElement":
        arms = tuple(arms) if arms is not None else (0,) * params.n
        if len(arms) != params.n or min(arms, default=0) < 0 or t0 < 0 or t1 < 0:
            raise ParameterError(f"bad monomial exponents ({t0}, {t1}, {arms})")
        return cls(params, _reduce_term(params, Fraction(coeff), t0, t1, arms))

    def is_zero(self) -> bool:
        return not self.terms

    def monomials(self) -> tuple[Monomial, ...]:
        keys = sorted(self.terms)
        return tuple(Monomial(self.terms[k], k[0], k[1], k[2]) for k in keys)

    def l_degree(self) -> LElement | None:
        """Common degree of all terms; None for zero, error if inhomogeneous."""
        degs = {(k[2], k[0] + k[1]) for k in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise PreconditionError("element is not homogeneous")
        arms, a = next(iter(degs))
        return LElement(self.params.weights, arms, a)

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, Fraction(0)) + v
        return RingElement(self.params, terms)

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + other.scale(-1)

    def __mul__(self, other: "RingElement") -> "RingElement":
        return multiply(self.params, self, other)

    def scale(self, c) -> "RingElement":
        c = Fraction(c)
        return RingElement(self.params, {k: c * v for k, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingElement)
            and self.params == other.params
            and self.terms == other.terms
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(str(m) for m in self.monomials())

    def _check(self, other: "RingElement") -> None:
        if self.params != other.params:
            raise ParameterError("elements belong to rings with different parameters")


def _reduce_term(params: Parameters, coeff: Fraction, t0: int, t1: int, arms) -> dict[TermKey, Fraction]:
    """Rewrite x_i^{p_i} -> ell_i(t0, t1) until every arm exponent is reduced."""
    tparts: dict[tuple[int, int], Fraction] = {(t0, t1): coeff}
    reduced = []
    for i, (e, p) in enumerate(zip(arms, params.weights)):
        q, r = divmod(e, p)
        reduced.append(r)
        if q:
            c0, c1 = linear_form(params.points[i])
            power = _linear_power(c0, c1, q)
            new: dict[tuple[int, int], Fraction] = {}
            for (a, b), v in tparts.items():
                for (k0, k1), w in power.items():
                    key = (a + k0, b + k1)
                    new[key] = new.get(key, Fraction(0)) + v * w
            tparts = new
    arms_t = tuple(reduced)
    return {(a, b, arms_t): v for (a, b), v in tparts.items() if v != 0}


def ring_one(params: Parameters) -> RingElement:
    return RingElement.from_monomial(params, 1)


def multiply(params: Parameters, u: RingElement, v: RingElement) -> RingElement:
    """Product in the quotient ring, fully reduced."""
    if u.params != params or v.params != params:
        raise ParameterError("factors belong to rings with different parameters")
    terms: dict[TermKey, Fraction] = {}
    for (a0, a1, fa), ca in u.terms.items():
        for (b0, b1, fb), cb in v.terms.items():
            raw = tuple(x + y for x, y in zip(fa, fb))
            for key, val in _reduce_term(params, ca * cb, a0 + b0, a1 + b1, raw).items():
                terms[key] = terms.get(key, Fraction(0)) + val
    return RingElement(params, terms)


@dataclass(frozen=True)
class GradedPiece:
    """A graded piece with its canonical monomial basis, ordered by t0-exponent."""

    params: Parameters
    degree: LElement
    basis: tuple[Monomial, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def graded_dim(params: Parameters, y: LElement) -> int:
    """a + 1 when the normal form has c coefficient a >= 0, else 0."""
    return y.c_coeff + 1 if y.c_coeff >= 0 else 0


def graded_basis(params: Parameters, y: LElement) -> GradedPiece:
    if y.weights != params.weights:
        raise ParameterError("degree belongs to a different group")
    a = y.c_coeff
    if a < 0:
        return GradedPiece(params, y, ())
    basis = tuple(Monomial(Fraction(1), j, a - j, y.arms) for j in range(a + 1))
    return GradedPiece(params, y, basis)


@dataclass(frozen=True)
class Subspace:
    """A subspace of a graded piece, stored as a reduced row echelon matrix."""

    piece: GradedPiece
    rows: tuple[tuple[Fraction, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.rows)


def coords(piece: GradedPiece, elem: RingElement) -> tuple[Fraction, ...]:
    """Coordinates of a homogeneous element in the canonical basis of its piece."""
    vec = [Fraction(0)] * piece.dim
    a = piece.degree.c_coeff
    for (e0, e1, arms), coef in elem.terms.items():
        if arms != piece.degree.arms or e0 + e1 != a:
            raise PreconditionError("element does not lie in the given graded piece")
        vec[e0] = coef
    return tuple(vec)


def span(piece: GradedPiece, elements) -> Subspace:
    from .linalg import rref

    rows = rref([coords(piece, e) for e in elements])
    return Subspace(piece, rows)


def _product_rows(params: Parameters, y: LElement, z: LElement) -> list[list[int]]:
    """Integer coordinate rows spanning the product of the pieces of degrees y and z.

    Every pairwise basis product is a t-shift of the single reduced product
    of the two arm monomials, f = prod(ell_i) over the support of (y, z)
    (``_support``), a nonzero binary form, so the distinct shifts are
    linearly independent and span the product inside the piece of degree
    y + z.  The form is built as the integer product of w_i*t0 - u_i*t1 over
    the points (u_i:w_i), a nonzero multiple of f; coordinates are indexed
    by the t0 exponent and each shift is a row.
    """
    a, b = y.c_coeff, z.c_coeff
    if a < 0 or b < 0:
        return []
    form = [1]
    for i in _support(y, z):
        u, w = params.points[i]
        form = [w * raised - u * c for raised, c in zip([0, *form], [*form, 0])]
    shifts = a + b
    return [[0] * sigma + form + [0] * (shifts - sigma) for sigma in range(shifts + 1)]


def piece_product(params: Parameters, y: LElement, z: LElement) -> Subspace:
    """Span of all pairwise basis products of two pieces inside their sum.

    The spanning rows are the t-shifts of one integer binary form
    (``_product_rows``), reduced exactly by ``rref``.  The speciality
    oracle needs no span: it reads each product from its support alone, and
    only the sweep's rank route (``sweeps._level_by_rank``) stacks the rows.
    """
    from .linalg import rref

    return Subspace(graded_basis(params, l_add(y, z)), rref(_product_rows(params, y, z)))
