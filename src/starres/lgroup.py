"""Arithmetic in the rank-one abelian group L(p_1,...,p_n).

L is generated by x_1,...,x_n and c subject to p_i*x_i = c.  Every element
has a unique normal form sum(a_i*x_i) + a*c with 0 <= a_i < p_i, and is
"positive" exactly when a >= 0.  Weight data comes bundled with n marked
points of P^1 (stored as homogeneous integer pairs) because downstream ring
arithmetic needs them; the group laws only ever look at the weights.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import ParameterError, PreconditionError


def canonical_point(u, w) -> tuple[int, int]:
    """Scale a rational pair (u:w) to coprime ints, first nonzero entry positive.

    Entries are ints, Fractions or strings such as "1/2"; a float is refused,
    since Fraction would expand its binary value.
    """
    if isinstance(u, float) or isinstance(w, float):
        raise ParameterError(f"point coordinates must be exact, got ({u!r}:{w!r})")
    uf, wf = Fraction(u), Fraction(w)
    if uf == 0 and wf == 0:
        raise ParameterError("(0:0) is not a point of P^1")
    m = uf.denominator * wf.denominator
    a, b = int(uf * m), int(wf * m)
    g = math.gcd(a, b)
    a, b = a // g, b // g
    if (a if a != 0 else b) < 0:
        a, b = -a, -b
    return a, b


def _as_int(value, what: str) -> int:
    """value as an exact int; a float or a Fraction is refused, not truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError(f"{what} must be an integer, got {value!r}") from None


def default_points(n: int) -> tuple[tuple[int, int], ...]:
    """(1:0), (0:1), (1:1), (2:1), (3:1), ... -- pairwise distinct for any n."""
    pts = [(1, 0), (0, 1)]
    pts.extend((k, 1) for k in range(1, max(0, n - 2) + 1))
    return tuple(pts[:n])


class _ParameterFields(NamedTuple):  # a NamedTuple body may not define __new__
    weights: tuple[int, ...]
    points: tuple[tuple[int, int], ...]


class Parameters(_ParameterFields):
    """Weight vector p (all p_i >= 2) plus pairwise-distinct points of P^1."""

    __slots__ = ()

    def __new__(cls, weights: Iterable[int], points=None):
        weights = tuple(_as_int(p, "weight") for p in weights)
        if any(p < 2 for p in weights):
            raise ParameterError(f"weights must all be >= 2, got {weights}")
        if points is None:
            points = default_points(len(weights))
        pts = tuple(canonical_point(u, w) for u, w in points)
        if len(pts) != len(weights):
            raise ParameterError(
                f"{len(weights)} weights but {len(pts)} points"
            )
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                u1, w1 = pts[i]
                u2, w2 = pts[j]
                if u1 * w2 == u2 * w1:
                    raise ParameterError(f"points {i} and {j} coincide: ({u1}:{w1})")
        return super().__new__(cls, weights, pts)

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def is_normalized(self) -> bool:
        """First two points are (1:0) and (0:1)."""
        return self.n >= 2 and self.points[0] == (1, 0) and self.points[1] == (0, 1)


class LElement(NamedTuple):
    """Normal form sum(arms[i]*x_i) + c_coeff*c with 0 <= arms[i] < p_i."""

    weights: tuple[int, ...]
    arms: tuple[int, ...]
    c_coeff: int

    def __str__(self) -> str:
        parts = [f"{a}x{i + 1}" for i, a in enumerate(self.arms) if a != 0]
        if self.c_coeff != 0 or not parts:
            parts.append(f"{self.c_coeff}c")
        return " + ".join(parts)

    def to_json(self) -> dict:
        return {"xi": list(self.arms), "c": self.c_coeff}


def _check_same_group(a: LElement, b: LElement) -> None:
    if a.weights != b.weights:
        raise ParameterError(f"mismatched weight vectors {a.weights} vs {b.weights}")


def normal_form(params: Parameters, coeffs: Iterable[int], c: int = 0) -> LElement:
    """Reduce arbitrary integer coefficients to the unique normal form.

    Each generator exponent is reduced mod p_i and the quotient is carried
    onto the c coefficient.
    """
    coeffs = [_as_int(e, "coefficient") for e in coeffs]
    if len(coeffs) != params.n:
        raise ParameterError(f"expected {params.n} coefficients, got {len(coeffs)}")
    arms = []
    carry = _as_int(c, "c coefficient")
    for e, p in zip(coeffs, params.weights):
        q, r = divmod(e, p)
        arms.append(r)
        carry += q
    return LElement(params.weights, tuple(arms), carry)


def generator(params: Parameters, i: int) -> LElement:
    """The class of x_i (0-based index)."""
    arms = [0] * params.n
    arms[i] = 1
    return LElement(params.weights, tuple(arms), 0)


def c_element(params: Parameters) -> LElement:
    return LElement(params.weights, (0,) * params.n, 1)


def l_add(a: LElement, b: LElement) -> LElement:
    _check_same_group(a, b)
    arms = []
    carry = a.c_coeff + b.c_coeff
    for x, y, p in zip(a.arms, b.arms, a.weights):
        q, r = divmod(x + y, p)
        arms.append(r)
        carry += q
    return LElement(a.weights, tuple(arms), carry)


def l_neg(a: LElement) -> LElement:
    arms = []
    carry = -a.c_coeff
    for x, p in zip(a.arms, a.weights):
        if x == 0:
            arms.append(0)
        else:
            arms.append(p - x)
            carry -= 1
    return LElement(a.weights, tuple(arms), carry)


def l_scale(k: int, a: LElement) -> LElement:
    arms = []
    carry = k * a.c_coeff
    for x, p in zip(a.arms, a.weights):
        q, r = divmod(k * x, p)
        arms.append(r)
        carry += q
    return LElement(a.weights, tuple(arms), carry)


def _support(y: LElement, z: LElement) -> list[int]:
    """Arms i with y_i + z_i >= p_i: each carries into c when y and z are added.

    These are the marked points whose linear forms divide the reduced
    product of the arm monomials of degrees y and z.
    """
    return [i for i, (s, t, p) in enumerate(zip(y.arms, z.arms, y.weights)) if s + t >= p]


def is_positive(a: LElement) -> bool:
    """Membership in the positive cone: c coefficient >= 0 in normal form."""
    return a.c_coeff >= 0


def in_interval_0_c(a: LElement) -> bool:
    """0 <= a <= c; closed form on the normal-form coefficients."""
    return a.c_coeff >= 0 and a.c_coeff + sum(1 for x in a.arms if x > 0) <= 1


def degree_hom(a: LElement) -> int:
    """The homomorphism L -> Z sending x_i to lcm(p)/p_i and c to lcm(p)."""
    lcm = math.lcm(*a.weights) if a.weights else 1
    return sum(x * (lcm // p) for x, p in zip(a.arms, a.weights)) + a.c_coeff * lcm


def is_torsion(a: LElement) -> bool:
    return degree_hom(a) == 0


class SpecialElements(NamedTuple):
    """The distinguished elements c, omega = (n-2)c - sum x_i, s = sum x_i."""

    c: LElement
    omega: LElement
    s: LElement

    def s_a(self, k: int) -> LElement:
        if k < 0:
            raise PreconditionError(f"s_a needs k >= 0, got {k}")
        return l_add(self.s, l_scale(k, self.c))


def special_elements(params: Parameters) -> SpecialElements:
    n = params.n
    omega = normal_form(params, [-1] * n, n - 2)
    s = normal_form(params, [1] * n, 0)
    return SpecialElements(c=c_element(params), omega=omega, s=s)


def coprime_criterion(params: Parameters, x: LElement) -> bool:
    """gcd(p_i, a_i) = 1 for every arm; any a_i = 0 fails (gcd(p_i, 0) = p_i)."""
    _require_element_of(params, x)
    if is_torsion(x):
        raise PreconditionError("coprime criterion is undefined for torsion elements")
    return all(math.gcd(p, a) == 1 for p, a in zip(params.weights, x.arms))


def reduce_parameters(params: Parameters, x: LElement) -> tuple[Parameters, LElement]:
    """Drop zero arms and divide each remaining (p_i, a_i) by gcd(a_i, p_i).

    The reduced pair presents the same Z-graded Veronese subring; the output
    always satisfies the coprime criterion and keeps the c coefficient.
    """
    _require_element_of(params, x)
    if is_torsion(x):
        raise PreconditionError("parameter reduction is undefined for torsion elements")
    keep = [i for i, a in enumerate(x.arms) if a != 0]
    new_weights = []
    new_arms = []
    for i in keep:
        d = math.gcd(x.arms[i], params.weights[i])
        new_weights.append(params.weights[i] // d)
        new_arms.append(x.arms[i] // d)
    new_params = Parameters(new_weights, [params.points[i] for i in keep])
    return new_params, LElement(new_params.weights, tuple(new_arms), x.c_coeff)


def _require_element_of(params: Parameters, x: LElement) -> None:
    if x.weights != params.weights:
        raise ParameterError(
            f"element of L{x.weights} used with parameters {params.weights}"
        )
