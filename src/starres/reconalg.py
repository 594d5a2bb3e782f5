"""Quivers of endomorphism algebras of the special modules, by two routes,
plus the explicit presentation of the degree-one Veronese and the Dynkin
(domestic) classification.

Route one reads arrow and relation counts off the intersection theory of the
dual graph, in integers: the fundamental cycle Z_f by Laufer increments and
the canonical pairings Z_K . E_i = E_i^2 + 2 by adjunction, with no solve
for Z_K.  Route two is purely
combinatorial: double the dual graph, add an extending vertex, and attach
extra arrows governed by the labels.  The two must agree, and that equality
is the module's central test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import NotMinimalError, ParameterError, PreconditionError, StarresError
from .gradedring import RingElement, affine_value, graded_basis, graded_dim, ring_one, span
from .intersection import fundamental_cycle, matrix_from_graph
from .lgroup import LElement, Parameters, l_neg, l_scale, normal_form, special_elements
from .resolution import DualGraph, ModuleLabel, _specials_on, dual_graph, specials


@dataclass(frozen=True)
class QuiverData:
    """Vertex names plus arrow-count and relation-count matrices.

    The extending vertex (the ring summand) is always last.
    """

    vertices: tuple[str, ...]
    arrows: tuple[tuple[int, ...], ...]
    relations: tuple[tuple[int, ...], ...]

    @property
    def star(self) -> int:
        return len(self.vertices) - 1

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "arrows": [list(r) for r in self.arrows],
            "relations": [list(r) for r in self.relations],
        }


def _names_from_labels(g: DualGraph, labels) -> tuple[str, ...]:
    names = [f"E{i}" for i in range(g.size)]
    if labels is not None:
        for lab in labels:
            if lab.vertex is not None:
                names[lab.vertex] = lab.display
    return tuple(names) + ("R",)


def quiver_from_intersection(g: DualGraph, labels=None) -> QuiverData:
    """Arrow and relation counts from the cycle pairings of a minimal graph.

    Z_f comes from ``fundamental_cycle`` (Laufer increments, which refuse a
    matrix that is not negative definite) and Z_f . E_i is summed over the
    integer rows of the matrix.  Adjunction fixes Z_K . E_i = E_i^2 + 2, so
    the counts at the extending vertex need no canonical cycle and every
    count is an integer.
    """
    if any(l >= -1 for l in g.labels):
        raise NotMinimalError("quiver counts need all self-intersections <= -2")
    m = matrix_from_graph(g)
    zf = fundamental_cycle(m)
    k = g.size
    arrows = [[0] * (k + 1) for _ in range(k + 1)]
    relations = [[0] * (k + 1) for _ in range(k + 1)]
    zf_self = 0
    for i, row in enumerate(m.entries):
        arrows[i][:k] = [x if x > 0 else 0 for x in row]  # the diagonal is <= -2
        relations[i][:k] = [-1 - x if x < -1 else 0 for x in row]
        zf_dot = sum(map(mul, row, zf))
        arrows[i][k] = max(-zf_dot, 0)
        diff = row[i] + 2 - zf_dot  # Z_K . E_i - Z_f . E_i
        arrows[k][i] = max(diff, 0)
        relations[k][i] = max(-diff, 0)
        zf_self += zf_dot * zf[i]
    relations[k][k] = -1 - zf_self
    return QuiverData(
        vertices=_names_from_labels(g, labels),
        # tuples of lists, not of generators: see linalg._integer_row
        arrows=tuple([tuple(r) for r in arrows]),
        relations=tuple([tuple(r) for r in relations]),
    )


def quiver_combinatorial(params: Parameters, x: LElement) -> QuiverData:
    """The same quiver read directly off the labels of the dual graph.

    Double every tree edge, put the extending vertex above the arm ends, give
    each vertex of label -alpha with alpha > 2 an extra alpha - 2 arrows to
    the extending vertex, and give the center a further a arrows there.
    Needs at least two arms; fewer is degenerate and handled by the
    intersection route.
    """
    g = dual_graph(params, x)
    v = len(g.arms)
    if v <= 1:
        raise PreconditionError("combinatorial quiver needs at least two arms")
    labels = _specials_on(params, x, g)
    k = g.size
    a = x.c_coeff
    arrows = [[0] * (k + 1) for _ in range(k + 1)]
    relations = [[0] * (k + 1) for _ in range(k + 1)]
    for i, j in g.edges:
        arrows[i][j] += 1
        arrows[j][i] += 1
    for arm in g.arms:
        top = arm[-1]
        arrows[k][top] += 1
        arrows[top][k] += 1
    for idx in range(k):
        alpha = -g.labels[idx]
        if idx != g.center and alpha > 2:
            arrows[idx][k] += alpha - 2
        relations[idx][idx] = alpha - 1
    arrows[g.center][k] += a
    relations[k][k] = a + v - 1 + sum(-g.labels[i] - 2 for i in range(k) if i != g.center)
    relations[k][g.center] = v - 2
    return QuiverData(
        vertices=_names_from_labels(g, labels),
        # tuples of lists, not of generators: see linalg._integer_row
        arrows=tuple([tuple(r) for r in arrows]),
        relations=tuple([tuple(r) for r in relations]),
    )


def quiver_to_dot(q: QuiverData) -> str:
    """DOT digraph; arrows into the extending vertex black, out of it red."""
    lines = ["digraph quiver {"]
    for idx, name in enumerate(q.vertices):
        lines.append(f'    v{idx} [label="{name}"];')
    star = q.star
    for i in range(len(q.vertices)):
        for j in range(len(q.vertices)):
            color = "red" if i == star else "black"
            for _ in range(q.arrows[i][j]):
                lines.append(f"    v{i} -> v{j} [color={color}];")
    lines.append("}")
    return "\n".join(lines)


@dataclass(frozen=True)
class CanonicalAlgebraDesc:
    """Parameters of the star-quiver algebra appearing in degree zero."""

    weights: tuple[int, ...]
    points: tuple[tuple[int, int], ...]
    relations: tuple[str, ...]

    @property
    def arm_lengths(self) -> tuple[int, ...]:
        return tuple(q - 1 for q in self.weights)


def _point_str(point: tuple[int, int]) -> str:
    u, w = point
    if u != 0 and w != 0:
        return str(Fraction(w, u))
    return f"({u}:{w})"


def degree_zero_canonical(params: Parameters, x: LElement) -> CanonicalAlgebraDesc:
    """Weights and points of the degree-zero piece of the quiver algebra.

    Arm i with a_i != 0 contributes weight m_i + 1 (the arm length plus one)
    and keeps its marked point.
    """
    g = dual_graph(params, x)
    if "non-minimal" in g.flags:
        raise NotMinimalError("degree-zero description needs x outside [0, c]")
    weights = tuple(len(arm) + 1 for arm in g.arms)
    points = tuple(params.points[i] for i in g.arm_sources)
    rels = tuple(
        f"x1^{weights[0]} - {_point_str(points[i])}*x2^{weights[1]} + x{i + 1}^{weights[i]}"
        for i in range(2, len(weights))
    )
    return CanonicalAlgebraDesc(weights, points, rels)


@dataclass(frozen=True)
class WahlPresentation:
    """Generators of the degree-one Veronese and their determinantal matrix."""

    params: Parameters
    gens: tuple[RingElement, ...]
    v: RingElement
    degrees: tuple[int, ...]
    matrix: tuple[tuple[RingElement, ...], tuple[RingElement, ...]]
    matrix_symbolic: tuple[tuple[str, ...], tuple[str, ...]]


def _require_wahl_params(params: Parameters) -> None:
    if params.n < 3:
        raise PreconditionError("the presentation needs at least three weights")
    if not params.is_normalized:
        raise ParameterError("points must be normalized to (1:0), (0:1), ...")


def wahl_generators(params: Parameters) -> WahlPresentation:
    """The n+1 generators u_1..u_n, v of the Veronese along sum(x_i).

    With normalized points these are literal monomials (u_i for i >= 3 gets a
    sign), and the ring is presented by the 2x2 minors of a 2 x n matrix in
    them.
    """
    _require_wahl_params(params)
    p = params.weights
    n = params.n

    def monomial(coeff: int, exps: dict[int, int]) -> RingElement:
        arms = [exps.get(i, 0) for i in range(n)]
        return RingElement.from_monomial(params, coeff, arms=arms)

    gens = []
    for i in range(n):
        if i == 0:
            exps = {0: p[0] + p[1]}
            exps.update({k: p[1] for k in range(2, n)})
            gens.append(monomial(1, exps))
        elif i == 1:
            exps = {1: p[0] + p[1]}
            exps.update({k: p[0] for k in range(2, n)})
            gens.append(monomial(1, exps))
        else:
            exps = {0: p[i], 1: p[1] + p[i]}
            exps.update({k: p[i] for k in range(2, n) if k != i})
            gens.append(monomial(-1, exps))
    v = monomial(1, {i: 1 for i in range(n)})
    degrees = (p[1], p[0]) + tuple(p[2:])

    def vpow(k: int) -> RingElement:
        out = v
        for _ in range(k - 1):
            out = out * v
        return out

    lams = [affine_value(params.points[i]) for i in range(2, n)]
    top = [gens[1]] + [gens[i] for i in range(2, n)] + [vpow(p[1])]
    bottom = (
        [vpow(p[0])]
        + [gens[i].scale(lams[i - 2]) + vpow(p[i]) for i in range(2, n)]
        + [gens[0]]
    )
    top_sym = ["u2"] + [f"u{i + 1}" for i in range(2, n)] + [f"v^{p[1]}"]
    bottom_sym = (
        [f"v^{p[0]}"]
        + [f"{lams[i - 2]}*u{i + 1} + v^{p[i]}" for i in range(2, n)]
        + ["u1"]
    )
    return WahlPresentation(
        params=params,
        gens=tuple(gens),
        v=v,
        degrees=degrees,
        matrix=(tuple(top), tuple(bottom)),
        matrix_symbolic=(tuple(top_sym), tuple(bottom_sym)),
    )


@dataclass(frozen=True)
class WahlReport:
    ok: bool
    minor_failures: tuple[tuple[int, int], ...]
    dim_failures: tuple[tuple[int, int, int], ...]


def wahl_verify(params: Parameters, max_degree: int = 12) -> WahlReport:
    """Check the presentation symbolically inside the ambient graded ring.

    Every 2x2 minor of the matrix must vanish after substituting the
    generator monomials, and for each N <= max_degree the words of degree N
    in the generators must span the whole graded piece, whose dimension is
    sum(floor(N/p_i)) + 1.  A range with no degree in it checks nothing,
    so ``max_degree`` below 1 is refused.
    """
    if max_degree < 1:
        raise PreconditionError(f"max_degree must be at least 1, got {max_degree}")
    pres = wahl_generators(params)
    n = params.n
    top, bottom = pres.matrix
    minor_failures = []
    for i in range(n):
        for j in range(i + 1, n):
            minor = top[i] * bottom[j] - bottom[i] * top[j]
            if not minor.is_zero():
                minor_failures.append((i, j))

    gen_degrees = list(pres.degrees) + [1]
    gen_elems = list(pres.gens) + [pres.v]
    # powers[gi][k] = gen_elems[gi]^k, extended on demand by a loop: a
    # recursive closure would refer to itself, a reference cycle that kept
    # the whole cache alive until the next full garbage collection
    powers = [[ring_one(params)] for _ in gen_elems]

    def power(gi: int, k: int) -> RingElement:
        cache = powers[gi]
        while len(cache) <= k:
            cache.append(cache[-1] * gen_elems[gi])
        return cache[k]

    dim_failures = []
    for target in range(1, max_degree + 1):
        words = []
        stack = [(0, target, [])]
        while stack:
            gi, rem, exps = stack.pop()
            if gi == len(gen_elems) - 1:
                words.append(exps + [rem])
                continue
            d = gen_degrees[gi]
            for k in range(rem // d + 1):
                stack.append((gi + 1, rem - k * d, exps + [k]))
        elements = []
        for exps in words:
            elem = power(0, exps[0])
            for gi in range(1, len(gen_elems)):
                if exps[gi]:
                    elem = elem * power(gi, exps[gi])
            elements.append(elem)
        degree = normal_form(params, [target] * n, 0)
        piece = graded_basis(params, degree)
        got = span(piece, elements).dim
        expected = sum(target // p for p in params.weights) + 1
        if got != expected or expected != graded_dim(params, degree):
            dim_failures.append((target, got, expected))
    return WahlReport(
        ok=not minor_failures and not dim_failures,
        minor_failures=tuple(minor_failures),
        dim_failures=tuple(dim_failures),
    )


def wahl_special_ideals(params: Parameters) -> tuple[tuple[ModuleLabel, str], ...]:
    """Two-generated ideals realizing the special modules of the s-Veronese.

    Arm positions are counted outward from the center, matching the vertex
    assignment of ``specials``.
    """
    _require_wahl_params(params)
    p = params.weights

    def vpow(k: int) -> str:
        return "v" if k == 1 else f"v^{k}"

    s = special_elements(params).s
    out = []
    for label in specials(params, s):
        if label.kind == "free":
            continue
        if label.kind == "c":
            out.append((label, f"({vpow(p[1])}, u1)"))
            continue
        j, u = label.arm, label.u
        k = p[j] - u
        if j == 0:
            out.append((label, f"({vpow(p[1] + k)}, u1)"))
        elif j == 1:
            out.append((label, f"(u1, {vpow(p[1] - k)})"))
        else:
            out.append((label, f"(u{j + 1}, {vpow(p[j] - k)})"))
    return tuple(out)


@dataclass(frozen=True)
class LabeledArrow:
    source: str
    target: str
    color: str
    label: str
    z_degree: int


@dataclass(frozen=True)
class WahlRelations:
    arrows: tuple[LabeledArrow, ...]
    relations: tuple[str, ...]


def wahl_relations(params: Parameters) -> WahlRelations:
    """The doubled star quiver of the s-Veronese with labelled arrows.

    Black arrows (degree zero) carry the canonical-algebra maps, red arrows
    (degree one) the reverse maps.  Relations: the canonical relations on
    black paths, plus at every vertex the equality of all 2-cycles through
    it.
    """
    _require_wahl_params(params)
    p = params.weights
    n = params.n

    def vname(j: int, k: int) -> str:
        # position k counted outward, k in [1, p_j - 1]; k = 0 is the center
        return "center" if k == 0 else f"E_{j + 1}_{k}"

    arrows = []
    lam_str = [None, None] + [str(affine_value(pt)) for pt in params.points[2:]]
    for j in range(n):
        top = p[j] - 1
        inward = "inc" if j == 0 else "v"
        outward = "v" if j == 0 else "inc"
        arrows.append(
            LabeledArrow("R", vname(j, top), "black", "u1" if j == 0 else "v", 0)
        )
        arrows.append(
            LabeledArrow(vname(j, top), "R", "red", "v/u1" if j == 0 else "inc", 1)
        )
        for k in range(top, 1, -1):
            arrows.append(LabeledArrow(vname(j, k), vname(j, k - 1), "black", inward, 0))
            arrows.append(LabeledArrow(vname(j, k - 1), vname(j, k), "red", outward, 1))
        if j == 0:
            into, outof = "inc", "v"
        elif j == 1:
            into, outof = "v", "inc"
        else:
            into, outof = f"v^{p[1] + 1}/u{j + 1}", f"u{j + 1}/v^{p[1]}"
        arrows.append(LabeledArrow(vname(j, 1), "center", "black", into, 0))
        arrows.append(LabeledArrow("center", vname(j, 1), "red", outof, 1))

    relations = [
        f"x1^{p[0]} - {lam_str[j]}*x2^{p[1]} + x{j + 1}^{p[j]}" for j in range(2, n)
    ]
    incident: dict[str, list[str]] = {}
    for arrow in arrows:
        if arrow.color == "black":
            incident.setdefault(arrow.source, []).append(arrow.target)
            incident.setdefault(arrow.target, []).append(arrow.source)
    for vertex in sorted(incident):
        neighbors = sorted(set(incident[vertex]))
        cycles = [f"({vertex}->{u}->{vertex})" for u in neighbors]
        for a, b in zip(cycles, cycles[1:]):
            relations.append(f"at {vertex}: {a} = {b}")
    return WahlRelations(tuple(arrows), tuple(relations))


DYNKIN_TABLE = {
    (2, 3, 3): ("T", 6),
    (2, 3, 4): ("O", 12),
    (2, 3, 5): ("I", 30),
}


@dataclass(frozen=True)
class DomesticInfo:
    triple: tuple[int, int, int]
    m: int
    group: str
    h: int
    pi_index: int

    def to_json(self) -> dict:
        return {"group": self.group, "h": self.h, "pi_index": self.pi_index}


def domestic_classify(params: Parameters, m: int) -> DomesticInfo:
    """Name the quotient-singularity type of the (m-3)-shifted Veronese.

    Only the three Dynkin weight triples qualify; the Coxeter-number
    identity (h(m-2)+1) * omega = -(s + (m-3)c) is re-verified in the group
    before returning.
    """
    triple = tuple(sorted(params.weights))
    if triple not in DYNKIN_TABLE:
        raise PreconditionError(f"{params.weights} is not a Dynkin triple")
    if m < 3:
        raise PreconditionError(f"need m >= 3, got {m}")
    letter, h = DYNKIN_TABLE[triple]
    index = h * (m - 2) + 1
    sp = special_elements(params)
    if l_scale(index, sp.omega) != l_neg(sp.s_a(m - 3)):
        raise StarresError("Coxeter identity failed; group arithmetic is inconsistent")
    return DomesticInfo(triple, m, f"{letter}_{index}", h, index)
