"""Tutte-style invariants of alternating dimaps.

Exact arithmetic throughout: parameters are rationals (Fraction), the
polynomial recursions work over sparse integer polynomials.  Recursions on
a map are evaluated with respect to an explicit edge order — the least
surviving edge is always the one reduced — because general maps are
order-sensitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import (Any, Callable, Dict, Hashable, List, Mapping, Optional,
                    Sequence, Tuple)

from .core import (ALL_MU, MU1, MUW, MUW2, AltDimap, EdgeClass,
                   InvariantError, map_from_rotations, map_stats, reflect,
                   trial)
from .embedded import EmbeddedGraph
from .minors import _reduce
from .multigraph import Multigraph, frontier, sweep, tutte_poly
from .perm import Perm, numbering
from .poly import Poly1, Poly2

Q = Fraction


def _coerce(value):
    """Coerce exact numeric inputs to Fraction; leave symbolic values alone."""
    if isinstance(value, (int, str, Fraction)):
        return Fraction(value)
    return value

__all__ = [
    "SimpleParams", "ExtendedParams", "PlaneGraph",
    "simple_tutte_eval", "SIMPLE_FAMILIES", "simple_family_value",
    "extended_eval", "basic_extended_params",
    "T_c", "T_a", "T_i", "frontier_order",
    "alt_c", "alt_a", "alt_i",
    "tutte_poly", "plane_multigraph",
]


# -- parameters -----------------------------------------------------------------

@dataclass(frozen=True)
class SimpleParams:
    """Coefficients of the four-parameter invariant recursion: w for
    ultraloops, x/y/z for proper 1-/ω-/ω²-loops; non-triloop edges always
    contribute the unweighted three-term sum."""

    w: Fraction
    x: Fraction
    y: Fraction
    z: Fraction

    def __post_init__(self):
        for name in ("w", "x", "y", "z"):
            object.__setattr__(self, name, _coerce(getattr(self, name)))


@dataclass(frozen=True)
class ExtendedParams:
    """Coefficients of the sixteen-parameter recursion: w/x/y/z as in
    SimpleParams, then one coefficient triple per proper-semiloop kind
    ((a,b,c) for 1-, (d,e,f) for ω-, (g,h,i) for ω²-semiloops) and (j,k,l)
    for edges in none of those classes."""

    w: Fraction
    x: Fraction
    y: Fraction
    z: Fraction
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    e: Fraction
    f: Fraction
    g: Fraction
    h: Fraction
    i: Fraction
    j: Fraction
    k: Fraction
    l: Fraction

    def __post_init__(self):
        for name in "wxyzabcdefghijkl":
            object.__setattr__(self, name, _coerce(getattr(self, name)))


def basic_extended_params(alpha, beta, gamma, delta) -> ExtendedParams:
    """Parameters under which extended_eval returns
    α^|E| · β^|V| · γ^af · δ^cf exactly."""
    alpha, beta, gamma, delta = Q(alpha), Q(beta), Q(gamma), Q(delta)
    if 0 in (alpha, beta, gamma, delta):
        raise ValueError("basic invariant needs nonzero parameters")
    return ExtendedParams(
        w=alpha * beta * gamma * delta,
        x=alpha * beta, y=alpha * gamma, z=alpha * delta,
        a=alpha / beta, b=Q(0), c=Q(0),
        d=Q(0), e=Q(0), f=alpha / gamma,
        g=Q(0), h=alpha / delta, i=Q(0),
        j=alpha * beta / 3, k=alpha * delta / 3, l=alpha * gamma / 3,
    )


# -- edge orders ----------------------------------------------------------------

def _resolve_order(g: AltDimap, order: Optional[Sequence[Hashable]]) -> List[Hashable]:
    if order is None:
        return list(g.sw.labels)
    order = list(order)
    if len(order) != g.n_edges or set(order) != set(g.edges):
        raise ValueError("order must be a permutation of the edge set")
    return order


def frontier_order(g: AltDimap) -> List[Hashable]:
    """The edges of G in a frontier order: next the edge with the most
    trimedial neighbours already taken (its neighbours under σ₁, σ_ω and
    σ_ω², one for each edge of the trimedial graph); ties as in
    multigraph.frontier, the edges numbered in repr order.  The reduced
    part then meets the rest in few edges, which keeps the recursion
    states few.  On the alt images of plane graphs T_c, T_a and T_i take
    the same value in every order; on other maps the order can change
    it, which is why order=None stays the repr order."""
    perms = (g.s1, g.sw, g.sw2)
    n = g.n_edges
    keys = [[k * n + x for k, p in enumerate(perms) for x in (e, p.pre[e])]
            for e in range(n)]
    return [g.sw.labels[i] for i in frontier(keys)]


# -- the recursion engine -------------------------------------------------------

# A case table is a sequence of rows (test, terms), tried in priority order;
# the first row whose test accepts the EdgeClass of the edge being reduced
# applies.  Its terms are (coefficient, reduction type) pairs and the row
# evaluates to the sum of coefficient × (value of the reduced map).  A
# coefficient None takes the sub-result as it is, and a zero coefficient
# drops its term without reducing.
Case = Tuple[Callable[[EdgeClass], bool], Sequence[Tuple[Any, int]]]


def _recurse(g: AltDimap, order: Optional[Sequence[Hashable]],
             cases: Sequence[Case], one, zero, name: str):
    """Evaluate a case-table recursion, always reducing the first
    surviving edge of `order` (default: edges sorted by repr).  The empty
    map is worth `one`; a row whose terms are all dropped is worth `zero`;
    an edge that no row accepts raises ValueError.

    A state is the four tuples (σ_ω, σ_ω⁻¹, σ_ω², σ_ω²⁻¹) over G's edge
    numbers, reduced by minors._reduce, which leaves a reduced edge fixed
    by all four.  The recursion is swept level by level
    (multigraph.sweep), level i holding the states met after i
    reductions, which have exactly the edges order[i:]; so within a level
    the images of σ_ω and σ_ω² fix the map, and states are merged on
    them."""
    rem = list(map(g.number, _resolve_order(g, order)))

    def row(state: Tuple[Tuple[tuple, ...], int]):
        s, i = state
        if i == len(rem):
            return None
        e = rem[i]
        c = EdgeClass(*s, e)
        terms = next((terms for test, terms in cases if test(c)), None)
        if terms is None:
            raise ValueError(f"edge {g.sw.labels[e]!r} fits no case of the "
                             f"{name} recursion")
        return [(coeff, (tuple(map(tuple, _reduce(*s, e, mu))), i + 1))
                for coeff, mu in terms if coeff is None or coeff]

    return sweep((g.arrays, 0), lambda st: (st[0][0], st[0][2]), row, one, zero)


def _no_semiloop(c: EdgeClass) -> bool:
    return not (c.is_1_semiloop or c.is_omega_semiloop or c.is_omega2_semiloop)


# -- simple and extended invariants ----------------------------------------------

def simple_tutte_eval(g: AltDimap, p: SimpleParams,
                      order: Optional[Sequence[Hashable]] = None) -> Fraction:
    """Evaluate the four-parameter recursion, always reducing the first
    surviving edge of `order` (default: edges sorted by repr).  It is
    extended_eval with the twelve semiloop and generic coefficients set
    to 1."""
    return extended_eval(g, ExtendedParams(p.w, p.x, p.y, p.z, *[1] * 12), order)


SIMPLE_FAMILIES: Dict[str, SimpleParams] = {
    "zero": SimpleParams(0, 0, 0, 0),
    "three_E": SimpleParams(3, 3, 3, 3),
    "sign_V": SimpleParams(-1, -1, 1, 1),
    "sign_af": SimpleParams(-1, 1, -1, 1),
    "sign_cf": SimpleParams(-1, 1, 1, -1),
}


def simple_family_value(g: AltDimap, family: str) -> Fraction:
    """Closed form of one of the five order-independent families."""
    st = map_stats(g)
    if family == "zero":
        return Q(0) if st.n_edges else Q(1)
    if family == "three_E":
        return Q(3) ** st.n_edges
    if family == "sign_V":
        return Q(-1) ** st.n_vertices
    if family == "sign_cf":
        return Q(-1) ** st.n_c_faces
    if family == "sign_af":
        return Q(-1) ** st.n_a_faces
    raise ValueError(f"unknown family {family!r}")


def extended_eval(g: AltDimap, p: ExtendedParams,
                  order: Optional[Sequence[Hashable]] = None) -> Fraction:
    """Evaluate the sixteen-parameter recursion on the first surviving
    edge of `order`.  Cases are tested in priority order: ultraloop,
    proper 1-/ω-/ω²-loop, proper 1-/ω-/ω²-semiloop, then the generic
    three-term case."""
    return _recurse(g, order, (
        (lambda c: c.is_ultraloop, ((p.w, MU1),)),
        (lambda c: c.is_1_loop, ((p.x, MU1),)),
        (lambda c: c.is_omega_loop, ((p.y, MUW),)),
        (lambda c: c.is_omega2_loop, ((p.z, MUW2),)),
        (lambda c: c.is_proper_semiloop(MU1), tuple(zip((p.a, p.b, p.c), ALL_MU))),
        (lambda c: c.is_proper_semiloop(MUW), tuple(zip((p.d, p.e, p.f), ALL_MU))),
        (lambda c: c.is_proper_semiloop(MUW2), tuple(zip((p.g, p.h, p.i), ALL_MU))),
        (lambda c: True, tuple(zip((p.j, p.k, p.l), ALL_MU))),
    ), Q(1), Q(0), "extended")


# -- the polynomial recursions T_c, T_a, T_i --------------------------------------

def T_c(g: AltDimap, order: Optional[Sequence[Hashable]] = None) -> Poly2:
    """Clockwise Tutte recursion.  Case priority: ω²-loop (including
    ultraloop) — recurse with factor 1; ω-semiloop — x times the
    ω²-reduction; proper 1-semiloop or ω-loop — y times the 1-reduction;
    non-semiloop — sum of the 1- and ω²-reductions.  Edges fitting no
    case are rejected (the recursion is defined only piecewise)."""
    x, y = Poly2.var(0), Poly2.var(1)
    return _recurse(g, order, (
        (lambda c: c.is_omega2_loop, ((None, MUW2),)),
        (lambda c: c.is_omega_semiloop, ((x, MUW2),)),
        (lambda c: c.is_proper_semiloop(MU1) or c.is_omega_loop, ((y, MU1),)),
        (_no_semiloop, ((None, MU1), (None, MUW2))),
    ), Poly2.one(), Poly2.zero(), "clockwise")


def T_a(g: AltDimap, order: Optional[Sequence[Hashable]] = None) -> Poly2:
    """Anticlockwise Tutte recursion: T_c with ω and ω² exchanged.  The
    mirror image exchanges exactly those (its ω-loops, ω-semiloops and
    ω-reductions are the ω²-ones of G, edge for edge), so this is T_c on
    reflect(G)."""
    return T_c(reflect(g), order)


def T_i(g: AltDimap, order: Optional[Sequence[Hashable]] = None) -> Poly1:
    """In-star Tutte recursion (univariate).  Case priority: 1-loop
    (including ultraloop) — factor 1; proper ω-semiloop or ω²-loop — x
    times the ω²-reduction; proper ω²-semiloop or ω-loop — x times the
    ω-reduction; non-semiloop — sum of the ω- and ω²-reductions.  A
    proper 1-semiloop is rejected: the recursion is undefined there."""
    x = Poly1.var()
    return _recurse(g, order, (
        (lambda c: c.is_1_loop, ((None, MU1),)),
        (lambda c: c.is_proper_semiloop(MUW) or c.is_omega2_loop, ((x, MUW2),)),
        (lambda c: c.is_proper_semiloop(MUW2) or c.is_omega_loop, ((x, MUW),)),
        (_no_semiloop, ((None, MUW), (None, MUW2))),
    ), Poly1.one(), Poly1.zero(), "in-star")


# -- plane graphs and the alt constructions ---------------------------------------

class PlaneGraph:
    """An embedded undirected graph whose every component has genus 0."""

    def __init__(self, graph: EmbeddedGraph):
        for comp, gam in graph.component_genus().items():
            if gam != 0:
                raise ValueError(f"component {sorted(comp, key=repr)} has "
                                 f"genus {gam}; not plane")
        self.graph = graph

    @classmethod
    def from_rotations(cls, rotations: Mapping[Hashable, Sequence[Tuple[Hashable, int]]]) -> "PlaneGraph":
        return cls(EmbeddedGraph(rotations.keys(), rotations))


def plane_multigraph(p: PlaneGraph) -> Multigraph:
    """Forget the embedding: the underlying multigraph (Tutte oracle input)."""
    eg = p.graph
    return Multigraph(eg.vertices,
                      [(e,) + eg.endpoints(e) for e in sorted(eg.edges, key=repr)])


def alt_c(p: PlaneGraph) -> AltDimap:
    """Each edge becomes a clockwise directed 2-face; the original faces
    become the anticlockwise faces (cf = |E|, af = |F|).

    Every undirected edge is replaced by an antiparallel directed pair:
    edge e gains directed edges (e, '+') (away from dart (e, 0)) and
    (e, '-') (the reverse).  At a vertex, each dart expands clockwise to
    [outgoing, incoming]."""
    eg = p.graph
    rotations: Dict[Hashable, List[Tuple[Hashable, str]]] = {}
    for v, rot in eg.rotations.items():
        out: List[Tuple[Hashable, str]] = []
        for (e, end) in rot:
            leave = (e, "+") if end == 0 else (e, "-")
            enter = (e, "-") if end == 0 else (e, "+")
            out += [(leave, "out"), (enter, "in")]
        rotations[v] = out
    g = map_from_rotations(rotations)
    st = map_stats(g)
    # a vertex without darts bounds a face of its own but gives the map
    # no vertex, so it is left out of the face identity
    n_e, n_f = len(eg.edges), sum(1 for f in eg.trace_faces() if f)
    if st.n_c_faces != n_e or st.n_a_faces != n_f:
        raise InvariantError("doubled map fails the face-count identities")
    if st.genus != eg.genus():
        raise InvariantError("doubled map changed the genus")
    return g


def _renamed(sw: Perm, sw2: Perm, name: Callable[[Hashable], Hashable]) -> AltDimap:
    """The map (sw, sw2), two permutations of one edge numbering, with
    each edge label l renamed name(l)."""
    names = [name(l) for l in sw.labels]
    labels, index = numbering(names)
    new = list(map(index.__getitem__, names))  # old edge number -> new

    def renamed(q: Perm) -> Perm:
        img = [0] * len(new)
        for i, j in zip(new, q.img):
            img[i] = new[j]
        return Perm._of(labels, index, tuple(img))

    return AltDimap(renamed(sw), renamed(sw2))


def alt_a(p: PlaneGraph) -> AltDimap:
    """Mirror of alt_c: anticlockwise 2-faces (af = |E|, cf = |F|).  It is
    alt_c(P) with σ_ω and σ_ω² exchanged and the labels (e, '+') and
    (e, '-') swapped: each dart then expands clockwise to [incoming,
    outgoing]."""
    g = alt_c(p)
    return _renamed(g.sw2, g.sw, lambda l: (l[0], "-" if l[1] == "+" else "+"))


def alt_i(p: PlaneGraph, orientation_choice: int = 0) -> AltDimap:
    """The in-star image: the medial graph of P with one of its two
    orientations in which in- and out-edges alternate around every
    vertex.  It is derived from alt_c: orientation 1 is
    reflect(trial(alt_c(P))), the map (σ_ω⁻¹, σ₁⁻¹) of alt_c(P), and
    orientation 0 is the same pair swapped, (σ₁⁻¹, σ_ω⁻¹).  Edge (e, '+')
    of alt_c(P) is named (e, 1) and (e, '-') is named (e, 0).  The
    in-stars are the 2-faces of alt_c(P), one for each edge e of P, which
    are the medial vertices; under orientation 1 the in-star of e is the
    2-face {(e, 0), (e, 1)} itself."""
    if orientation_choice not in (0, 1):
        raise ValueError("orientation_choice must be 0 or 1")
    h = reflect(trial(alt_c(p)))
    pair = (h.sw, h.sw2) if orientation_choice else (h.sw2, h.sw)
    return _renamed(*pair, lambda l: (l[0], int(l[1] == "+")))
