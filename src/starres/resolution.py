"""Dual graphs of the Veronese surfaces, their special modules, and the
speciality oracle that re-derives speciality on its own, by a walk on the
arm residues of the degrees involved, O(n) per level.

For a positive non-torsion x with normal form sum(a_i x_i) + a c, the minimal
resolution has a star-shaped dual graph: center -(a + v) where v counts the
nonzero arms, and arm i carrying the negated continued-fraction expansion of
p_i/(p_i - a_i).  One or zero nonzero arms degenerate to a chain or a single
vertex.  The rank-one special modules are indexed by the i-series value sets
I(p_j, p_j - a_j), one module per exceptional curve plus the ring itself.
"""

from __future__ import annotations

from itertools import count
from math import gcd
from typing import NamedTuple

from .errors import NotMinimalError, ParameterError, PreconditionError
from .hj import hj_expand, i_set
from .lgroup import LElement, Parameters, _check_same_group, in_interval_0_c, is_positive

POINT = "point"
CHAIN = "chain"
STAR = "star"


class DualGraph(NamedTuple):
    """Labelled tree with a distinguished center and arms listed center-outward.

    ``arm_sources[k]`` records which weight index produced arm k (None for
    synthetic graphs).  ``flags`` holds "non-minimal" when the graph comes
    from an x in [0, c].
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
    star = make_star(-(a + len(nonzero)), arm_labels, arm_sources=tuple(nonzero))
    return star._replace(flags=flags)


class ModuleLabel(NamedTuple):
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


class OracleResult(NamedTuple):
    special: bool
    witness: int | None = None

    def __bool__(self) -> bool:
        return self.special


def speciality_oracle(
    params: Parameters, x: LElement, y: LElement, l_max: int | None = None
) -> OracleResult:
    """Decide speciality of the shifted module S(y) by a walk on integer residues.

    The walk reads only the arm residues and c coefficients of the degrees
    involved, as plain ints with carries, and builds no group element: each
    level costs O(n), and a call O(L0 * n) for the level bound L0 below.

    First y is lowered to y - x while the piece of degree y - x is nonzero.
    S(y) = S(y - x) is the sum of the pieces of degrees y + k*x, k in Z, and
    adding x never lowers a c coefficient, so the lowered y starts the
    module and the levels read all of it.  A y whose own piece is zero too
    is kept: its level l >= 1 has the pairs of level l - 1 of y + x, and its
    extra level 0 fails only if that of y + x does (a nonzero piece of
    degree y + omega makes that of y + x + omega nonzero).  So a class gets
    one verdict whatever its representative; only the witness moves.

    Then for each level l >= 0 checks, inside the graded piece of degree
    y + omega + l*x, that the whole piece equals the sum over m in [1, l] of
    the products of the pieces in degrees omega + m*x and y + (l - m)*x.
    A failing l is returned as the witness; witness 0 means that the piece
    of degree y + omega is nonzero.  Every level from L0 on passes, so the
    levels below L0 decide speciality and each verdict is a proof.  An
    optional ``l_max`` caps the levels checked; "special" under a cap below
    L0 only says that no level up to l_max fails.

    The left piece omega + m*x is always nonempty: with every a_i nonzero,
    omega + x has c coefficient n + a - 2 >= 0 for x outside [0, c].  Adding
    x never lowers a c coefficient, so the right piece is nonempty exactly
    for l - m >= k0, the least k >= 0 at which y + k*x has c coefficient
    >= 0; the pairs of level l are m = 1..M, M = l - k0.  Adding two degrees
    adds their c coefficients plus one per carrying arm.

    A level with pairs fills iff no point lies in every support; a level
    without pairs fills iff its piece is zero.  Let d = dim - 1.  Each
    product is f_Q * S_(d - |Q|) for the squarefree binary form f_Q, the
    product of the linear forms of the points in its support Q, the arms
    that carry in the pair's sum: the degree-d forms that vanish on Q, whose
    annihilator W_Q is spanned by the evaluations at the points of Q.  The
    level fills iff the W_Q meet in 0.  Take a level l with pairs and
    supports Q_m:
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

    The supports in residues: the arm of omega + m*x at i is
    (m*a_i - 1) mod p_i and that of y + (l - m)*x is (y_i + (l - m)*a_i)
    mod p_i, so their sum is s_i(l) or s_i(l) + p_i, where
    s_i(l) = (y_i + l*a_i - 1) mod p_i.  Hence i lies in Q_m exactly when
    (m*a_i - 1) mod p_i > s_i(l), and some point lies in every Q_m iff, for
    some arm i, the least (m*a_i - 1) mod p_i over m = 1..M exceeds s_i(l).
    So the levels with pairs are walked arm by arm: arm i steps M = 1, 2, ...
    with that running minimum and s_i(k0 + M), and stops once the minimum
    is 0, after which it lies in no common support.  The witness is k0 plus
    the least M at which some arm fails.  A level without pairs fills iff
    c(omega + l*x) + c(y) + #carries + 1 <= 0, counting the arms that carry
    when omega + l*x and y are added.

    L0 is k0 + max(p) - 1, and every level from L0 on passes: a_i is a unit
    mod p_i, so the running minimum of arm i is 0 once M reaches
    a_i^-1 mod p_i <= p_i - 1.  Once l >= k0 + max(p) - 1 every arm's minimum
    is 0, no point lies in every support, and the level fills.  When n = 0,
    max(p) is read as 2: the level k0 has no pairs and can fail, while k0 + 1
    has pairs and no point at all.
    """
    _require_valid(params, x)
    if l_max is not None and l_max < 1:
        raise PreconditionError(f"l_max must be at least 1, got {l_max}")
    if in_interval_0_c(x):
        raise NotMinimalError("the oracle needs x outside [0, c]")
    p, a, xc = params.weights, x.arms, x.c_coeff
    if any(gcd(pi, ai) != 1 for pi, ai in zip(p, a)):
        raise PreconditionError(
            "oracle requires coprime arm coefficients; reduce parameters first"
        )
    _check_same_group(y, x)
    ys, yc = y.arms, y.c_coeff
    # y - x has arms (y_i - a_i) mod p_i, and one borrow per arm with y_i < a_i
    while (lower := yc - xc - sum(yi < ai for yi, ai in zip(ys, a))) >= 0:
        ys, yc = tuple((yi - ai) % pi for yi, ai, pi in zip(ys, a, p)), lower
    # the levels l <= k0 have no pairs: each fills iff its piece is zero
    top, top_c = [pi - 1 for pi in p], -2  # omega + l*x; omega = (n - 2)c - sum x_i
    right, right_c = list(ys), yc  # y + l*x
    for l in count():
        if l_max is not None and l > l_max:
            return OracleResult(True)
        if top_c + yc + sum(t + yi >= pi for t, yi, pi in zip(top, ys, p)) + 1 > 0:
            return OracleResult(False, l)
        if right_c >= 0:
            k0 = l
            break
        top_c += xc + _add_arms(top, a, p)
        right_c += xc + _add_arms(right, a, p)
    # level k0 + M has the pairs m = 1..M; each arm walks M up to L0 - 1 - k0,
    # or only below the earliest level an arm before it has failed
    last = max(p, default=2) - 2
    if l_max is not None:
        last = min(last, l_max - k0)
    first = last + 1
    for ri, ai, pi in zip(right, a, p):
        left, low, s = pi - 1, pi, (ri - 1) % pi  # (M*a_i - 1) mod p_i, its minimum, s_i(k0 + M)
        for m in range(1, first):
            left += ai
            if left >= pi:
                left -= pi
            s += ai
            if s >= pi:
                s -= pi
            if left < low:
                low = left
            if low > s:
                first = m
                break
            if not low:
                break
    return OracleResult(True) if first > last else OracleResult(False, k0 + first)


def _add_arms(arms: list[int], a: tuple[int, ...], p: tuple[int, ...]) -> int:
    """Add the residues a to arms in place, mod p; return the number of carries."""
    carries = 0
    for i, ai in enumerate(a):
        t = arms[i] + ai
        if t >= p[i]:
            t -= p[i]
            carries += 1
        arms[i] = t
    return carries


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
