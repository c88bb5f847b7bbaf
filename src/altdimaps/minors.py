"""Reductions (minors) of alternating dimaps and reduction commutativity."""

from __future__ import annotations

from typing import (Callable, Hashable, Iterator, Optional, Sequence, Set,
                    Tuple)

from .catalog import canonical_code, live_code, tricircuit
from .core import (_ROTATIONS, ALL_MU, MU1, MUW2, AltDimap, InvariantError,
                   _image_map, map_stats, rotate)
from .embedded import euler_genus
from .multigraph import Multigraph
from .perm import _int_arg, orbits

Triple = Tuple[Tuple[int, ...], ...]


def _reduce(t: Sequence[Sequence[int]], i: int, mu: int) -> Triple:
    """The minor G[mu]i of the map with image triple t = (σ₁, σ_ω, σ_ω²),
    as the triple of new tuples over the same numbering: edge i becomes a
    fixed point of all three, so the numbers of the other edges are kept.

    By triality G[ω^μ]i is trial^−μ(trial^μ(G)[1]i), so every type is
    the splice of the 1-reduction in the triple (p, q, r) = rotate(t, μ)
    of trial^μ(G), returned in t's order: i leaves its q-cycle and its
    r-cycle, and p, which closes the triple, is rewritten at the points
    where q∘r changed.  For a triloop the three types give one map: the
    splice deletes the edge (an ultraloop's whole one-edge component
    disappears).  The preimages come from the triple identity p∘q∘r =
    id: q⁻¹ = r∘p and r⁻¹ = p∘q.
    """
    a, b, c = _ROTATIONS[mu]
    p, q, r = list(t[a]), list(t[b]), list(t[c])
    pi, qpre, rpre = p[i], r[p[i]], p[q[i]]
    # the splice changes q(r(x)) only at r⁻¹(i) and p(i) = r⁻¹(q⁻¹(i)) and
    # trusts p∘q∘r = id there and at i; either may be i, rewritten p[i] = i
    if p[q[r[i]]] != i or p[q[r[rpre]]] != rpre or p[q[r[pi]]] != pi:
        raise InvariantError(f"reducing edge number {i} by type {mu}: "
                             "the triple does not close around it")
    q[qpre], r[rpre] = q[i], r[i]
    q[i] = r[i] = i
    p[q[r[rpre]]], p[q[r[pi]]], p[i] = rpre, pi, i
    if mu == 0:
        return tuple(p), tuple(q), tuple(r)
    if mu == 1:  # (p, q, r) = (σ_ω², σ₁, σ_ω)
        return tuple(q), tuple(r), tuple(p)
    return tuple(r), tuple(p), tuple(q)


def _live_part(g: AltDimap, t: Triple, live: int) -> AltDimap:
    """The minor of G with image triple t over G's numbering, live the
    bitmask of its unreduced numbers (every other number of t fixed by all
    three), as a map on G's labels without its reduced edges: a map equal
    to G when nothing is reduced."""
    return _image_map(t[1], t[2], g.sw.labels,
                      [x for x in range(g.n_edges) if live >> x & 1])


def reduce_seq(g: AltDimap,
               steps: Sequence[Tuple[Hashable, int]]) -> AltDimap:
    """The minor of G after the reductions (e, mu) of steps in order, on
    G's image triple (see _reduce); one map, numbered as G without the
    reduced edges, is built at the end (a map equal to G for no steps).
    Each mu is an int (not a bool) in 0..2."""
    t, live = g.triple, (1 << g.n_edges) - 1
    for e, mu in steps:
        i = g.number(e)
        if not live >> i & 1:
            raise ValueError(f"edge {e!r} not in map")
        _int_arg("reduction type mu", mu, MU1, MUW2)
        t, live = _reduce(t, i, mu), live ^ (1 << i)
    return _live_part(g, t, live)


def reduce_map(g: AltDimap, e: Hashable, mu: int) -> AltDimap:
    """The minor G[mu]e (see _reduce), numbered as G without e."""
    return reduce_seq(g, [(e, mu)])


def _pattern_commutes(t: Sequence[Sequence[int]], mx: int, x: int) -> bool:
    """Whether {[1]x, [ω]y} commutes in the triple (s1, sw, sw2) =
    rotate(t, mx) of trial^mx(G), where y = sw(x) ≠ x.

    This is the one pattern that can fail.  It commutes only when both
    composite minors collapse to the same map: x a 1-loop, y an ω²-loop,
    y a 1-loop on a two-edge a-face or c-face {x, y}, x an ω²-loop on a
    two-edge a-face or in-star {x, y}, or x followed by y in all three of
    its cycles.  All five cases are needed (checked against both
    reduction orders on every map with at most six edges).
    """
    s1, sw, sw2 = rotate(t, mx)
    y = sw[x]
    aface2 = sw[y] == x
    cface2 = sw2[x] == y and sw2[y] == x
    instar2 = s1[x] == y and s1[y] == x
    return (s1[x] == x
            or sw2[y] == y
            or (s1[y] == y and (aface2 or cface2))
            or (sw2[x] == x and (aface2 or instar2))
            or (s1[x] == y and sw2[x] == y))


def predict_commute(g: AltDimap, e: Hashable, mu: int,
                    f: Hashable, nu: int) -> bool:
    """Predict, without performing any reductions, whether G[mu]e[nu]f
    equals G[nu]f[mu]e.

    Only {[1]e, [ω]f} with f = σ_ω(e), {[ω]e, [ω²]f} with f = σ₁(e) and
    {[ω²]e, [1]f} with f = σ_ω²(e) can fail: one pattern up to triality,
    decided by _pattern_commutes.  Equal types never form it, and neither
    does an ultraloop, which no permutation moves.  mu and nu are ints
    (not bools) in 0..2.
    """
    i, j = g.number(e), g.number(f)
    _int_arg("reduction type mu", mu, MU1, MUW2)
    _int_arg("reduction type nu", nu, MU1, MUW2)
    if i == j:
        raise ValueError("need two distinct edges")
    t = g.triple
    for (x, mx), (y, my) in (((i, mu), (j, nu)), ((j, nu), (i, mu))):
        if my == (mx + 1) % 3 and rotate(t, mx)[1][x] == y:
            return _pattern_commutes(t, mx, x)
    return True


def commute_check(g: AltDimap, e: Hashable, mu: int,
                  f: Hashable, nu: int) -> Tuple[bool, bool]:
    """Compare G[mu]e[nu]f with G[nu]f[mu]e.

    Returns (actual, predicted): the actual equality of the two composite
    minors, and the structural prediction from predict_commute, which
    checks the arguments.  Both minors fix e and f on G's numbering, so
    they are equal when their σ_ω and σ_ω² are: no map is built.
    """
    predicted = predict_commute(g, e, mu, f, nu)
    t, i, j = g.triple, g.number(e), g.number(f)
    actual = (_reduce(_reduce(t, i, mu), j, nu)[1:]
              == _reduce(_reduce(t, j, nu), i, mu)[1:])
    return actual, predicted


# -- trimedial graph and reduction-commutative maps ---------------------------


def trimedial(g: AltDimap) -> Multigraph:
    """The trimedial graph tri(G): one vertex per edge of G, and one edge
    joining each pair of consecutive edges in every in-star, a-face and
    c-face (a singleton cycle contributes a loop).  Always 6-regular."""
    pairs = [(x, sigma(x)) for sigma in (g.s1, g.sw, g.sw2) for x in g.edges]
    return Multigraph(g.edges, [(n, x, y) for n, (x, y) in enumerate(pairs)])


def is_2_reduction_commutative(g: AltDimap) -> bool:
    """Whether every pair of single reductions on G commutes.

    Only the pairs {[mx]x, [mx+1]y} with y = σ_ω(x), σ₁(x) or σ_ω²(x)
    ≠ x for mx = 0, 1, 2 can fail, so _pattern_commutes is asked at most
    3E times, with the same answer as predict_commute on every pair.
    """
    return _2_commutative(g.triple)


def _2_commutative(t: Sequence[Sequence[int]]) -> bool:
    """is_2_reduction_commutative on the image triple t; a number fixed by
    all three (a reduced one, or an ultraloop) is never asked about."""
    return all(_pattern_commutes(t, mx, x)
               for mx in ALL_MU for x, y in enumerate(rotate(t, mx)[1])
               if x != y)


def is_tricircuit(g: AltDimap) -> bool:
    """Whether the (connected, nonempty) map G is a tricircuit: a directed
    circuit of 1-loops (with at most one exceptional non-loop edge) whose
    exceptional head carries any number of ω-loops and ω²-loops.  Tested
    by rebuilding the candidate tricircuit from the loop counts and
    comparing up to isomorphism."""
    if not g.edges:
        return False
    q = sum(1 for e in g.edges if g.sw(e) == e and g.s1(e) != e)
    r = sum(1 for e in g.edges if g.sw2(e) == e and g.s1(e) != e)
    p = g.n_edges - q - r
    try:
        model = tricircuit(p, q, r)
    except ValueError:
        return False
    return canonical_code(g) == canonical_code(model)


def _minors(g: AltDimap,
            key: Optional[Callable[[Triple, int], Hashable]] = None,
            floor: int = 0) -> Iterator[Tuple[Hashable, Triple, int]]:
    """Depth-first walk over the minors of G with at least floor edges
    (G first), yielding (key(t, live), t, live) for the first minor met
    with each key.  A minor whose key is None is deduplicated only as a
    labelled minor; with no key, every labelled minor is yielded once, its
    key None.

    A minor is (t, live): t is its image triple over G's own numbering
    (_reduce's output), live the bitmask of its unreduced numbers.  A
    reduced number and a live ultraloop are both fixed by all three
    images, so a labelled minor is (live, σ_ω, σ_ω²); one met before is
    skipped before key is called.  No map is built: a consumer that needs
    one makes it with _live_part, and live_code keys a minor by its
    canonical code.  The children of a minor are its reductions by the
    live numbers in order (G's labels sorted by repr), each by types 1, ω,
    ω² (a triloop once: all three give one map), made only when the
    consumer resumes the walk after their parent.  A minor with at most
    floor edges gets no children, and G below floor yields nothing.  Every
    reduction removes one edge, so a pruned subtree holds only minors
    below floor and is popped before anything under it on the stack; keys
    of minors with different edge counts never collide, so the minors at
    or above floor are yielded in the same order as with floor 0.  So a
    minor at floor, which gets no children, needs a key only where the
    consumer reads one: its key prunes nothing below it."""
    n = g.n_edges
    met: Set[Tuple[int, Tuple[int, ...], Tuple[int, ...]]] = set()
    seen: Set[Hashable] = set()
    stack = [(g.triple, (1 << n) - 1, n)] if n >= floor else []
    while stack:
        t, live, n = stack.pop()
        labelled = live, t[1], t[2]
        if labelled in met:
            continue
        met.add(labelled)
        k = None if key is None else key(t, live)
        if k is not None:
            if k in seen:
                continue
            seen.add(k)
        yield k, t, live
        if n > floor:
            s1, sw, sw2 = t
            for i in range(len(s1)):
                if live >> i & 1:
                    triloop = s1[i] == i or sw[i] == i or sw2[i] == i
                    types = (MU1,) if triloop else ALL_MU
                    stack += [(_reduce(t, i, mu), live ^ (1 << i), n - 1)
                              for mu in types]


def is_totally_reduction_commutative(g: AltDimap) -> bool:
    """Whether reductions commute at every depth (the result of a sequence
    of reductions never depends on their order).

    Equivalently: in every minor of G (G included), all pairs of
    reductions commute.  The labelled minor closure is walked down to two
    edges (a minor with at most one edge has no pair to commute) and each
    minor's triple tested as in is_2_reduction_commutative, so no pair of
    composite minors is compared and no minor is made a map.  The pair
    prediction has been verified exhaustively on every map with at most
    six edges, so the test is exact there.

    Up to five edges the connected maps with this property are exactly
    the ultraloop, the pure 1-, ω- and ω²-circuits, the genus-one posy,
    and the three mixed one- and two-vertex tricircuits with edge counts
    (circuit, ω-loops, ω²-loops) in {(1,1,1), (2,1,0), (2,0,1)}.  At six
    edges 94 of the 901 maps have it, and the connected ones are exactly
    the pure 1-, ω- and ω²-circuits.
    """
    return all(_2_commutative(t) for _, t, _ in _minors(g, floor=2))


# -- posies and the excluded-minor genus test ---------------------------------


def is_posy(g: AltDimap) -> Optional[int]:
    """If G is a posy, its genus k (one vertex, 2k+1 edges, one a-face,
    one c-face); otherwise None.  The empty map is not a posy.  A posy is
    a connected posy union (see is_posy_union)."""
    return is_posy_union(g) if len(g.orbits()) == 1 else None


def is_posy_union(g: AltDimap) -> Optional[int]:
    """If every component of G is a posy, the total genus; else None.
    The empty map qualifies with total genus 0.

    Every component has at least one vertex, a-face and c-face, so each
    has exactly one of each when the four counts agree; Euler's formula
    then gives it 2 * genus + 1 edges, so it is a posy.
    """
    return _posy_union_genus(g.triple, g.n_edges)


def _posy_union_genus(t: Sequence[Sequence[int]], n: int) -> Optional[int]:
    """is_posy_union of the map with image triple t with n live numbers,
    every other number fixed by all three: such a number adds one cycle
    to each image and one component, so d = len(t[0]) - n is taken off
    each count.  The vertices, a-faces and c-faces are counted only while
    each count equals the components'."""
    d = len(t[0]) - n
    k = len(orbits(t[1], t[2])) - d
    if all(len(orbits(p)) - d == k for p in t):
        return euler_genus(k, n, 2 * k, k)
    return None


CLOSURE_MAX_EDGES = 8


def _closure_walk(g: AltDimap, key: Callable[[Triple, int], Hashable],
                  floor: int = 0):
    """_minors with the given key; refused above the cap."""
    if g.n_edges > CLOSURE_MAX_EDGES:
        raise ValueError(f"minor closure capped at {CLOSURE_MAX_EDGES} edges")
    return _minors(g, key, floor)


def minor_closure(g: AltDimap):
    """All minors of G up to isomorphism (including G and the empty map),
    as a dict canonical code -> representative map in _minors order."""
    return {k: _live_part(g, t, live)
            for k, t, live in _closure_walk(g, live_code)}


def excluded_minor_witness(g: AltDimap, k: int) -> Optional[AltDimap]:
    """The first minor in minor_closure(G) whose components are posies of
    total genus k, or None; the walk stops at that witness.

    A posy union of total genus k with c ≥ 1 components has 2k + c edges,
    so the walk has floor 2k + 1 (see _minors): no smaller minor, the
    empty map included, is met, and the witness is the same map as with
    the whole closure.  Only a minor above floor is keyed, by its
    canonical code (live_code): a minor at floor has no children, so its
    code would prune nothing.  A floor minor that code would skip is
    isomorphic to one yielded before it, which was no witness, and
    posy-union genus is an isomorphism invariant; so the first witness is
    the same labelled minor.  The walk does not prune by genus: the
    theorem this tests includes that reductions never raise it.  Each
    minor's genus is read off its triple, by is_posy_union's rule, and
    only the witness is made a map.  k must be an int (not a bool) of at
    least 0.
    """
    floor = 2 * _int_arg("genus k", k, 0) + 1

    def key(t: Triple, live: int) -> Optional[bytes]:
        return live_code(t, live) if live.bit_count() > floor else None

    return next((_live_part(g, t, live)
                 for _, t, live in _closure_walk(g, key, floor)
                 if _posy_union_genus(t, live.bit_count()) == k), None)


def genus_excluded_minor_test(g: AltDimap, k: int) -> Tuple[bool, bool]:
    """Test the excluded-minor genus characterisation on G.

    Returns (genus_below_k, no_posy_union_minor_of_genus_k): for a
    nonempty map the two booleans agree exactly when the theorem holds.
    k must be an int (not a bool) of at least 0.
    """
    no_witness = excluded_minor_witness(g, k) is None
    return map_stats(g).genus < k, no_witness
