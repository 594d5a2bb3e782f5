"""Dual graphs of the Veronese surfaces, their special modules, and the
subspace-equation oracle that re-derives speciality from scratch.

For a positive non-torsion x with normal form sum(a_i x_i) + a c, the minimal
resolution has a star-shaped dual graph: center -(a + v) where v counts the
nonzero arms, and arm i carrying the negated continued-fraction expansion of
p_i/(p_i - a_i).  One or zero nonzero arms degenerate to a chain or a single
vertex.  The rank-one special modules are indexed by the i-series value sets
I(p_j, p_j - a_j), one module per exceptional curve plus the ring itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import count

from .errors import NotMinimalError, ParameterError, PreconditionError
from .hj import hj_expand, i_set
from .lgroup import (
    LElement,
    Parameters,
    _support,
    coprime_criterion,
    in_interval_0_c,
    is_positive,
    l_add,
    l_neg,
    normal_form,
)

POINT = "point"
CHAIN = "chain"
STAR = "star"


@dataclass(frozen=True)
class DualGraph:
    """Labelled tree with a distinguished center and arms listed center-outward.

    ``arm_sources[k]`` records which weight index produced arm k (None for
    synthetic graphs).  ``flags`` carries advisory notes such as
    "non-minimal".
    """

    labels: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    shape: str
    center: int
    arms: tuple[tuple[int, ...], ...]
    arm_sources: tuple[int | None, ...]
    flags: tuple[str, ...] = ()

    @property
    def size(self) -> int:
        return len(self.labels)

    def to_json(self) -> dict:
        return {
            "labels": list(self.labels),
            "edges": [list(e) for e in self.edges],
            "shape": self.shape,
            "center": self.center,
            "arms": [list(arm) for arm in self.arms],
            "arm_sources": list(self.arm_sources),
            "flags": list(self.flags),
        }


def graph_from_json(obj: dict) -> DualGraph:
    return DualGraph(
        labels=tuple(obj["labels"]),
        edges=tuple((e[0], e[1]) for e in obj["edges"]),
        shape=obj["shape"],
        center=obj["center"],
        arms=tuple(tuple(arm) for arm in obj["arms"]),
        arm_sources=tuple(obj["arm_sources"]),
        flags=tuple(obj.get("flags", [])),
    )


def make_star(center_label: int, arm_labels, arm_sources=None) -> DualGraph:
    """Assemble a star graph from a center label and per-arm label lists."""
    arm_labels = [tuple(arm) for arm in arm_labels]
    labels = [center_label]
    edges = []
    arms = []
    for arm in arm_labels:
        prev = 0
        indices = []
        for lab in arm:
            labels.append(lab)
            idx = len(labels) - 1
            edges.append((prev, idx))
            indices.append(idx)
            prev = idx
        arms.append(tuple(indices))
    if arm_sources is None:
        arm_sources = (None,) * len(arms)
    nonempty = len([a for a in arm_labels if a])
    shape = POINT if nonempty == 0 else CHAIN if nonempty == 1 else STAR
    return DualGraph(
        labels=tuple(labels),
        edges=tuple(edges),
        shape=shape,
        center=0,
        arms=tuple(arms),
        arm_sources=tuple(arm_sources),
    )


def _require_valid(params: Parameters, x: LElement) -> None:
    if x.weights != params.weights:
        raise ParameterError("element does not belong to this parameter set")
    if not is_positive(x) or (x.c_coeff == 0 and not any(x.arms)):
        raise PreconditionError("need a nonzero positive element")


def dual_graph(params: Parameters, x: LElement) -> DualGraph:
    """The labelled dual graph of the graded resolution attached to x."""
    _require_valid(params, x)
    a = x.c_coeff
    nonzero = [i for i, ai in enumerate(x.arms) if ai != 0]
    flags = () if not in_interval_0_c(x) else ("non-minimal",)
    arm_labels = []
    for i in nonzero:
        p, ai = params.weights[i], x.arms[i]
        arm_labels.append([-q for q in hj_expand(p, p - ai).alphas])
    return replace(
        make_star(-(a + len(nonzero)), arm_labels, arm_sources=tuple(nonzero)),
        flags=flags,
    )


def is_minimal(params: Parameters, x: LElement) -> bool:
    """The graded resolution is minimal exactly when x lies outside [0, c]."""
    _require_valid(params, x)
    return not in_interval_0_c(x)


def blow_down_chain(g: DualGraph) -> DualGraph:
    """Contract (-1)-vertices of a chain until none remain or one vertex is left.

    Contracting a vertex raises each neighbor's label by one and joins the
    neighbors.  A final single (-1)-vertex is flagged "exceptional-free": it
    contracts to a smooth point.
    """
    if g.shape not in (CHAIN, POINT):
        raise PreconditionError(f"blow-down works on chains, got a {g.shape}")
    labels = [g.labels[g.center]] + [g.labels[i] for arm in g.arms for i in arm]
    while len(labels) > 1 and any(l == -1 for l in labels):
        k = labels.index(-1)
        if k > 0:
            labels[k - 1] += 1
        if k + 1 < len(labels):
            labels[k + 1] += 1
        del labels[k]
    flags = tuple(f for f in g.flags if f != "non-minimal")
    if len(labels) == 1 and labels[0] == -1:
        flags += ("exceptional-free",)
    out = make_star(labels[0], [labels[1:]] if len(labels) > 1 else [])
    return replace(out, flags=flags)


@dataclass(frozen=True)
class ModuleLabel:
    """A rank-one module in the classification, with its graph vertex if any.

    kind "free" is the ring itself (no vertex), "c" the degree-c shift at the
    center, "arm" the shift by u*x_j sitting on arm j.
    """

    kind: str
    arm: int | None = None
    u: int | None = None
    vertex: int | None = None

    @property
    def display(self) -> str:
        if self.kind == "free":
            return "R"
        if self.kind == "c":
            return "S(c)"
        coeff = "" if self.u == 1 else str(self.u)
        return f"S({coeff}x{self.arm + 1})"


def specials(params: Parameters, x: LElement) -> tuple[ModuleLabel, ...]:
    """All indecomposable special modules, assigned to dual-graph vertices.

    The ring sits at no vertex, the degree-c shift at the center, and arm j
    carries S(u*x_j) for u in I(p_j, p_j - a_j) minus its endpoints, ordered
    outward by decreasing u.
    """
    return _specials_on(params, x, dual_graph(params, x))


def _specials_on(params: Parameters, x: LElement, g: DualGraph) -> tuple[ModuleLabel, ...]:
    """``specials`` on the dual graph g of x, already built and checked."""
    if "non-minimal" in g.flags:
        raise NotMinimalError("special modules are defined via the minimal resolution")
    out = [ModuleLabel("free"), ModuleLabel("c", vertex=g.center)]
    for arm_idx, j in enumerate(g.arm_sources):
        p, aj = params.weights[j], x.arms[j]
        us = sorted(i_set(p, p - aj) - {0, p}, reverse=True)
        for pos, u in enumerate(us):
            out.append(ModuleLabel("arm", arm=j, u=u, vertex=g.arms[arm_idx][pos]))
    return tuple(out)


@dataclass(frozen=True)
class OracleResult:
    special: bool
    witness: int | None = None

    def __bool__(self) -> bool:
        return self.special


def speciality_oracle(
    params: Parameters, x: LElement, y: LElement, l_max: int | None = None
) -> OracleResult:
    """Decide speciality of the shifted module S(y) by graded subspace equations.

    y is first lowered to the representative of its class mod x at which the
    module starts (``_levels``), so the verdict depends on the class alone.
    Then for each level l >= 0 checks, inside the graded piece of degree
    y + omega + l*x, that the whole piece equals the sum over m in [1, l] of
    the products of the pieces in degrees omega + m*x and y + (l - m)*x.
    A failing l is returned as the witness; witness 0 means that the piece
    of degree y + omega is nonzero.  Every level from the bound L0 of
    ``_levels`` on passes, so the levels below L0 decide speciality and each
    verdict is a proof.  An optional ``l_max`` caps the levels checked;
    "special" under a cap below L0 only says that no level up to l_max fails.

    A level with pairs fills iff no point lies in every support; a level
    without pairs fills iff its piece is zero.  Let d = dim - 1.  Each
    product is f_Q * S_(d - |Q|) for the squarefree binary form f_Q, the
    product of the linear forms of the points in its support Q
    (``lgroup._support``): the degree-d forms that vanish on Q, whose
    annihilator W_Q is spanned by the evaluations at the points of Q.  The
    level fills iff the W_Q meet in 0.  Take a level l with pairs
    m = 1..M, M = l - k0 >= 1 (k0 as in ``_levels``), and supports Q_m:
    - every pair's degrees add up to the same top degree, so
      d = c(omega + m*x) + c(y + (l - m)*x) + |Q_m| for every m;
    - every a_i >= 1, so all n arms carry in omega + x, whose c coefficient
      is n + a - 2, and the right piece of m = 1 is nonempty: hence
      dim >= n + a - 1 + |Q_1|;
    - if a >= 1 or Q_1 is nonempty, the supports' union has at most
      n <= dim points, whose evaluations are independent (Vandermonde), so
      W_A & W_Q = W_(A & Q) and the level fills iff the Q_m have no common
      point;
    - otherwise a = 0 and Q_1 is empty: f_Q_1 * S_d = S_d fills the level,
      and the Q_m have no common point either.
    """
    _require_valid(params, x)
    if l_max is not None and l_max < 1:
        raise PreconditionError(f"l_max must be at least 1, got {l_max}")
    if in_interval_0_c(x):
        raise NotMinimalError("the oracle needs x outside [0, c]")
    if not coprime_criterion(params, x):
        raise PreconditionError(
            "oracle requires coprime arm coefficients; reduce parameters first"
        )
    for l, dim, pairs in _levels(params, x, y, l_max):
        if pairs:
            fills = not set.intersection(*(set(_support(a, b)) for a, b in pairs))
        else:
            fills = dim == 0
        if not fills:
            return OracleResult(False, l)
    return OracleResult(True)


def _levels(params: Parameters, x: LElement, y: LElement, l_max: int | None):
    """Yield (l, dim, pairs) for l in [0, min(L0 - 1, l_max)].

    First y is lowered to y - x while the piece of degree y - x is nonzero.
    S(y) = S(y - x) is the sum of the pieces of degrees y + k*x, k in Z, and
    adding x never lowers a c coefficient, so the lowered y starts the
    module and the levels read all of it.  A y whose own piece is zero too
    is kept: its level l >= 1 has the pairs of level l - 1 of y + x, and its
    extra level 0 fails only if that of y + x does (a nonzero piece of
    degree y + omega makes that of y + x + omega nonzero).  So a class gets
    one verdict whatever its representative; only the witness moves.
    Level 0 has no pairs: it passes iff the piece of degree y + omega is 0.

    dim is the dimension of the piece of degree y + omega + l*x, and pairs
    lists the degrees (omega + m*x, y + (l - m)*x), m in [1, l], whose pieces
    are both nonempty.  The left piece always is: with every a_i nonzero,
    omega + x has c coefficient n + a - 2 >= 0 for x outside [0, c].  Adding
    two degrees adds their c coefficients plus one per carrying arm, so dim
    needs no further group arithmetic.

    Adding x never lowers a c coefficient, so the right piece is nonempty
    exactly for l - m >= k0, the least k >= 0 at which y + k*x has c
    coefficient >= 0.  L0 is k0 + max(p) (max(p) read as 1 when n = 0, so
    some pair exists), and every level from L0 on passes: point i lies in
    the support of pair m exactly when the arm of omega + m*x at i, which is
    m*a_i - 1 mod p_i, and the arm of y + (l - m)*x at i add up to at least
    p_i.  a_i is a unit mod p_i, so i drops out at the m in [1, p_i] with
    m*a_i = 1 mod p_i.  Once l >= k0 + max(p) every such m is a pair, no
    point lies in every support, and the level fills by the common-point
    rule of ``speciality_oracle``.
    """
    minus_x = l_neg(x)
    while (lower := l_add(y, minus_x)).c_coeff >= 0:
        y = lower
    reach = max(params.weights, default=1)
    lefts = [normal_form(params, [-1] * params.n, params.n - 2)]  # omega = (n - 2)c - sum x_i
    rights: list[LElement] = []  # rights[k] = y + k*x, added at level k + 1
    k0 = None
    for l in count() if l_max is None else range(l_max + 1):
        if l:
            lefts.append(l_add(lefts[-1], x))
            rights.append(l_add(rights[-1], x) if rights else y)
            if k0 is None and rights[-1].c_coeff >= 0:
                k0 = l - 1
        if k0 is not None and l >= k0 + reach:
            return
        top = lefts[l]
        dim = max(top.c_coeff + y.c_coeff + len(_support(top, y)) + 1, 0)
        pairs = [] if k0 is None else [(lefts[m], rights[l - m]) for m in range(1, l - k0 + 1)]
        yield l, dim, pairs


def _vertex_names(g: DualGraph) -> list[str]:
    names = [""] * g.size
    names[g.center] = "center"
    for arm_idx, arm in enumerate(g.arms):
        src = g.arm_sources[arm_idx]
        tag = arm_idx + 1 if src is None else src + 1
        for pos, vtx in enumerate(arm):
            names[vtx] = f"E_{tag}_{pos + 1}"
    return names


def to_dot(g: DualGraph, labels: tuple[ModuleLabel, ...] | None = None) -> str:
    """DOT rendering; module labels become vertex tooltips when given."""
    names = _vertex_names(g)
    tooltips = {}
    if labels is not None:
        for lab in labels:
            if lab.vertex is not None:
                tooltips[lab.vertex] = lab.display
    lines = ["graph dualgraph {"]
    for idx, name in enumerate(names):
        attrs = [f'label="{g.labels[idx]}"']
        if idx in tooltips:
            attrs.append(f'tooltip="{tooltips[idx]}"')
        lines.append(f"    {name} [{', '.join(attrs)}];")
    for i, j in g.edges:
        lines.append(f"    {names[i]} -- {names[j]};")
    lines.append("}")
    return "\n".join(lines)
