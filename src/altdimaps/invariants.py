"""Tutte-style invariants of alternating dimaps.

Exact arithmetic throughout: parameters are rationals (Fraction), the
polynomial recursions accumulate packed ints and return sparse integer
polynomials.  Recursions on a map are evaluated with respect to an
explicit edge order — the least surviving edge is always the one reduced
— because general maps are order-sensitive.  Without one, extended_eval
and simple_tutte_eval reduce in repr order.  So do T_c, T_a and T_i,
except on the alt images of plane graphs, where their value (the Tutte
polynomial, or its diagonal for T_i) is the same in every order and they
take the swept map's frontier_order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import (Any, Callable, Dict, Hashable, List, Optional,
                    Sequence, Tuple, Type)

from .core import (ALL_MU, MU1, MUW, MUW2, AltDimap, EdgeClass,
                   InvariantError, _class_code, _image_map, map_stats,
                   reflect, trial_power)
from .embedded import EmbeddedGraph, euler_genus
from .minors import _reduce
from .multigraph import Multigraph, frontier, sweep, tutte_poly
from .perm import _int_arg, inverse, numbering
from .poly import Poly, Poly1, Poly2, _PackedRing

Q = Fraction


def _coerce(value):
    """Coerce numbers to exact Fractions; leave symbolic values alone.  A
    float infinity is refused with ValueError, as a NaN is."""
    if isinstance(value, (int, float, str, Fraction)):
        try:
            return Fraction(value)
        except OverflowError as exc:
            raise ValueError(str(exc)) from None
    return value

__all__ = [
    "SimpleParams", "ExtendedParams",
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
    alpha, beta, gamma, delta = map(_coerce, (alpha, beta, gamma, delta))
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

def _numbers(g: AltDimap, order: Optional[Sequence[Hashable]]) -> Sequence[int]:
    """Validate a caller's edge order and number it; None is repr order."""
    if order is None:
        return range(g.n_edges)
    try:
        numbers = list(map(g.number, order))
    except ValueError:  # an unknown or unhashable label
        numbers = None
    if numbers is None or sorted(numbers) != list(range(g.n_edges)):
        raise ValueError("order must be a permutation of the edge set")
    return numbers


def _frontier(g: AltDimap) -> List[int]:
    """frontier_order(g) as edge numbers."""
    n, (a, b, c) = g.n_edges, g.triple
    # key k·n + y is the trimedial edge p⁻¹(y) → y, p the triple's member
    # k; edge e meets, for each p, the keys of p(e) and of e
    return frontier([(a[e], e, n + b[e], n + e, 2 * n + c[e], 2 * n + e)
                     for e in range(n)])


def frontier_order(g: AltDimap) -> List[Hashable]:
    """The edges of G in a frontier order: next the edge with the most
    trimedial neighbours already taken (its neighbours under σ₁, σ_ω and
    σ_ω², one for each edge of the trimedial graph); ties as in
    multigraph.frontier, the edges numbered in repr order.  The reduced
    part then meets the rest in few edges, which keeps the recursion
    states few.  T_c, T_a and T_i take this order of the map they sweep,
    as the edge numbers _frontier gives, when that map is an alt image of
    a plane graph and no order is given (see _clockwise)."""
    return [g.sw.labels[i] for i in _frontier(g)]


def _is_alt_c_image(g: AltDimap) -> bool:
    """Whether G has genus 0 and every c-face (σ_ω² cycle) of length 2,
    that is, whether G is the alt_c image of a plane graph.  The first
    test reads σ_ω² alone; only a fixed-point-free involution has its
    genus counted, its |E|/2 pairs being the c-faces."""
    sw2 = g.sw2.img
    if any(i == j or sw2[j] != i for i, j in enumerate(sw2)):
        return False
    n = len(sw2)
    return euler_genus(len(g.s1.cycles()), n, len(g.sw.cycles()) + n // 2,
                       len(g.orbits())) == 0


# -- the recursion engine -------------------------------------------------------

class _Table(tuple):
    """A case table's row tests, in priority order: an edge takes the row
    of the first test that accepts its EdgeClass.  A test reads the loop
    and semiloop bits alone, so core._class_code fixes the row; rows, the
    one store keyed by class code, keeps for each code asked for the index
    of that test (None if none accepts), read again by one subscript.
    EdgeClass raises InvariantError on a code with two loop bits (3, 5 or
    6) every time, so those are never stored."""

    def __new__(cls, tests: Sequence[Callable[[EdgeClass], bool]]):
        table = super().__new__(cls, tests)
        table.rows = {}
        return table

    def row(self, code: int) -> Optional[int]:
        try:
            return self.rows[code]
        except KeyError:
            c = EdgeClass(code)
            self.rows[code] = next((k for k, test in enumerate(self) if test(c)), None)
            return self.rows[code]


_CLOCKWISE = _Table((lambda c: c.is_omega2_loop, lambda c: c.is_omega_semiloop,
                     lambda c: c.is_proper_semiloop(MU1) or c.is_omega_loop,
                     lambda c: not any(map(c.is_semiloop, ALL_MU))))
_EXTENDED = _Table((lambda c: c.is_ultraloop,
                    *(lambda c, mu=mu: c.is_loop(mu) for mu in ALL_MU),
                    *(lambda c, mu=mu: c.is_proper_semiloop(mu) for mu in ALL_MU),
                    lambda c: True))


def _recurse(g: AltDimap, rem: Sequence[int], table: _Table,
             terms: Sequence[Sequence[Tuple[Any, int]]], one, zero, name: str):
    """Evaluate a case-table recursion, always reducing the first
    surviving edge of `rem`, a permutation of G's edge numbers (_numbers
    or _frontier).  Row k, picked by table.row, is worth the sum over its
    terms[k], (coefficient, reduction type) pairs, of coefficient × (value
    of the reduced map): None takes the sub-result as it is, and a zero
    drops its term without reducing.  The empty map is worth `one`; a row
    whose terms are all dropped is worth `zero`; an edge that no row
    accepts raises ValueError.

    A state is the image triple (σ₁, σ_ω, σ_ω²) over G's edge numbers.
    The edge to reduce has its class code read (core._class_code: three
    fixed-point compares, and three face walks for a non-triloop) and its
    row found by table.row, whose rows are the one store keyed by class
    code.  The kept terms of every row, bound once per call in a list
    indexed like terms, are reduced by minors._reduce, which leaves the
    reduced edge fixed by all three and returns the new triple as tuples.
    The recursion is swept level by level (multigraph.sweep), level i
    holding the states met after i reductions, which have exactly the
    edges rem[i:]; so within a level the images of σ_ω and σ_ω² fix the
    map, and states are merged on them."""
    n, row_of = len(rem), table.row
    kept = [[(c, mu) for c, mu in row if c is None or c] for row in terms]

    def row(state: Tuple[Tuple[Tuple[int, ...], ...], int]):
        s, i = state
        if i == n:
            return None
        e = rem[i]
        k = row_of(_class_code(s, e))
        if k is None:
            raise ValueError(f"edge {g.sw.labels[e]!r} fits no case of "
                             f"the {name} recursion")
        i += 1
        return [(coeff, (_reduce(s, e, mu), i)) for coeff, mu in kept[k]]

    return sweep((g.triple, 0), lambda st: (st[0][1], st[0][2]), row, one, zero)


# -- simple and extended invariants ----------------------------------------------

def simple_tutte_eval(g: AltDimap, p: SimpleParams,
                      order: Optional[Sequence[Hashable]] = None) -> Fraction:
    """Evaluate the four-parameter recursion, always reducing the first
    surviving edge of `order` (default: edges sorted by repr).  It is
    extended_eval with the twelve semiloop and generic coefficients set
    to 1."""
    return extended_eval(g, ExtendedParams(p.w, p.x, p.y, p.z, *[1] * 12), order)


# the basic invariant α^|E|·β^|V|·γ^af·δ^cf at five points (α, β, γ, δ);
# as simple parameters, w = αβγδ, x = αβ, y = αγ, z = αδ
_FAMILY_POINTS = {
    "zero": (0, 1, 1, 1),
    "three_E": (3, 1, 1, 1),
    "sign_V": (1, -1, 1, 1),
    "sign_af": (1, 1, -1, 1),
    "sign_cf": (1, 1, 1, -1),
}

SIMPLE_FAMILIES: Dict[str, SimpleParams] = {
    name: SimpleParams(a * b * c * d, a * b, a * c, a * d)
    for name, (a, b, c, d) in _FAMILY_POINTS.items()}


def simple_family_value(g: AltDimap, family: str) -> Fraction:
    """Closed form of one of the five order-independent families."""
    try:
        a, b, c, d = map(Q, _FAMILY_POINTS[family])
    except (KeyError, TypeError):
        raise ValueError(f"unknown family {family!r}") from None
    st = map_stats(g)
    return (a ** st.n_edges * b ** st.n_vertices * c ** st.n_a_faces
            * d ** st.n_c_faces)


def extended_eval(g: AltDimap, p: ExtendedParams,
                  order: Optional[Sequence[Hashable]] = None) -> Fraction:
    """Evaluate the sixteen-parameter recursion on the first surviving
    edge of `order`.  Cases are tested in priority order: ultraloop,
    proper 1-/ω-/ω²-loop, proper 1-/ω-/ω²-semiloop, then the generic
    three-term case."""
    return _recurse(g, _numbers(g, order), _EXTENDED, (
        ((p.w, MU1),), ((p.x, MU1),), ((p.y, MUW),), ((p.z, MUW2),),
        tuple(zip((p.a, p.b, p.c), ALL_MU)), tuple(zip((p.d, p.e, p.f), ALL_MU)),
        tuple(zip((p.g, p.h, p.i), ALL_MU)), tuple(zip((p.j, p.k, p.l), ALL_MU)),
    ), Q(1), Q(0), "extended")


# -- the polynomial recursions T_c, T_a, T_i --------------------------------------

def _clockwise(g: AltDimap, order: Optional[Sequence[Hashable]],
               cls: Type[Poly], name: str) -> Poly:
    """T_c's case table over cls, in x and y (y = x over Poly1), in
    priority: ω²-loop (including ultraloop) — factor 1; ω-semiloop — x
    times the ω²-reduction; proper 1-semiloop or ω-loop — y times the
    1-reduction; non-semiloop — sum of the 1- and ω²-reductions.  Other
    edges fit no case (of the `name` recursion) and are rejected.

    With no order given, the alt_c image of a plane graph P (genus 0,
    every c-face of length 2), on which the table gives T(P; x, y) in
    every order, is swept in its frontier_order as edge numbers
    (_frontier), which keeps the states few.  Any other map is swept in
    repr order, on which its value may depend.  An order the caller gives
    is turned into numbers, and validated, by _numbers.

    Every coefficient is x, y or 1 and a row has at most two terms, so
    the sweep accumulates packed ints (poly._PackedRing: a coefficient
    is at most 2^|E|, an exponent at most |E|), unpacked once at the
    end."""
    rem = (_frontier(g) if order is None and _is_alt_c_image(g)
           else _numbers(g, order))
    ring = _PackedRing(cls, g.n_edges)
    x, y = ring.var(0), ring.var(1 if cls is Poly2 else 0)
    return ring.unpack(_recurse(g, rem, _CLOCKWISE, (
        ((None, MUW2),), ((x, MUW2),), ((y, MU1),), ((None, MU1), (None, MUW2)),
    ), ring.one, ring.zero, name))


def T_c(g: AltDimap, order: Optional[Sequence[Hashable]] = None) -> Poly2:
    """Clockwise Tutte recursion: _clockwise's table in x and y.  The
    default order is G's frontier_order when G is an alt_c image of a
    plane graph (genus 0, every c-face of length 2), else repr order."""
    return _clockwise(g, order, Poly2, "clockwise")


def T_a(g: AltDimap, order: Optional[Sequence[Hashable]] = None) -> Poly2:
    """Anticlockwise Tutte recursion: T_c with ω and ω² exchanged.  The
    mirror image exchanges exactly those (its ω-loops, ω-semiloops and
    ω-reductions are the ω²-ones of G, edge for edge), so this is T_c on
    reflect(G).  The default order is thus reflect(G)'s frontier_order
    when G is an alt_a image of a plane graph (genus 0, every a-face of
    length 2), else repr order."""
    return _clockwise(reflect(g), order, Poly2, "anticlockwise")


def T_i(g: AltDimap, order: Optional[Sequence[Hashable]] = None) -> Poly1:
    """In-star Tutte recursion (univariate): T_c's table with y = x on
    H = trial²(reflect(G)), in the same order; H's triple is (σ_ω²⁻¹,
    σ_ω⁻¹, σ₁⁻¹).  Reflection negates every type; trial² then adds 2 to a
    loop or semiloop type (the trial law) but subtracts 2 from a reduction
    type (G^(ω^j)'s i-reduction is G's (i + j)-reduction, minors._reduce).
    So G's μ-loops and μ-semiloops are H's π(μ)-ones, π(μ) = 2 − μ, and
    G's μ-reduction is H's τ(μ)-reduction, τ(μ) = 1 − μ.  Pulled back,
    T_c's rows read on G, in priority: 1-loop (a triloop is removed alike
    by all three types) — factor 1; ω-semiloop, that is a proper one or an
    ω²-loop (a proper μ-loop is a ν-semiloop exactly for ν ≠ μ) — x times
    the ω²-reduction; proper ω²-semiloop or ω-loop — x times the
    ω-reduction; non-semiloop — sum of the ω- and ω²-reductions.  A proper
    1-semiloop, on H a proper ω²-semiloop, is rejected.  The default
    order is H's frontier_order when G is an alt_i image of a plane graph
    (genus 0, every in-star of length 2), else repr order."""
    return _clockwise(trial_power(reflect(g), 2), order, Poly1, "in-star")


# -- embedded graphs and the alt constructions ------------------------------------

def plane_multigraph(eg: EmbeddedGraph) -> Multigraph:
    """Forget the embedding: the underlying multigraph (Tutte oracle input),
    its edges in perm.numbering order."""
    return Multigraph(eg.vertices,
                      [(e,) + eg.endpoints(e) for e in numbering(eg.edges)[0]])


def alt_c(eg: EmbeddedGraph) -> AltDimap:
    """Each edge becomes a clockwise directed 2-face; the original faces
    become the anticlockwise faces (cf = |E|, af = |F|).  The image has
    the genus of eg, which may be any.

    Every undirected edge e is replaced by an antiparallel directed pair,
    (e, '+') leaving through dart (e, 0) and (e, '-') leaving through
    dart (e, 1).  Naming each dart by its leaving edge, σ_ω² is α, the
    2-cycles {(e, '+'), (e, '-')}, and σ_ω is α∘ρ⁻¹, each face of eg
    (a cycle of ρ∘α) read backwards."""
    g = _image_map(tuple(map(eg.alpha.__getitem__, inverse(eg.rho))), eg.alpha,
                   [(e, "+-"[i]) for e, i in eg.darts])
    st = map_stats(g)
    # a vertex without darts bounds a face of its own but gives the map
    # no vertex, so it is left out of the face identity
    faces = eg.trace_faces()
    n_e, n_f = len(eg.edges), sum(1 for f in faces if f)
    if st.n_c_faces != n_e or st.n_a_faces != n_f:
        raise InvariantError("doubled map fails the face-count identities")
    # eg's Euler relation, with the map's genus and components (σ_ω and
    # σ_ω² generate ⟨ρ, α⟩); each dartless vertex is one more component
    k = st.n_components + len(faces) - n_f
    if len(eg.vertices) - n_e + len(faces) != 2 * (k - st.genus):
        raise InvariantError("doubled map does not have the genus of the graph")
    return g


def alt_a(eg: EmbeddedGraph) -> AltDimap:
    """Mirror of alt_c: anticlockwise 2-faces (af = |E|, cf = |F|).  With
    the darts named as in alt_c, σ_ω is α and σ_ω² is ρ⁻¹∘α: each dart
    expands clockwise to [incoming, outgoing]."""
    return _image_map(eg.alpha, tuple(map(inverse(eg.rho).__getitem__, eg.alpha)),
                      [(e, "+-"[i]) for e, i in eg.darts])


def alt_i(eg: EmbeddedGraph, orientation_choice: int = 0) -> AltDimap:
    """The in-star image: the medial graph of eg with one of its two
    orientations in which in- and out-edges alternate around every
    vertex.  Each dart of eg names itself; orientation 1 is the map
    (α∘ρ, ρ⁻¹) and orientation 0 the same pair swapped, (ρ⁻¹, α∘ρ).  So
    σ₁ is α under orientation 1 and its conjugate ρ⁻¹∘α∘ρ under
    orientation 0: one in-star for each edge e of eg, the medial
    vertices, and under orientation 1 the in-star of e is {(e, 0), (e, 1)}
    itself.  orientation_choice is the int 0 or 1 (not a bool)."""
    _int_arg("orientation_choice", orientation_choice, 0, 1)
    pair = tuple(map(eg.alpha.__getitem__, eg.rho)), inverse(eg.rho)
    return _image_map(*(pair if orientation_choice else pair[::-1]), eg.darts)
