"""Polynomial and multiplicative invariants, and the plane-graph bridge."""

from fractions import Fraction
from itertools import permutations
from typing import Dict, Hashable, List, Tuple

import pytest
import sympy as sp

from altdimaps import (AltDimap, EmbeddedGraph, ExtendedParams,
                       InvariantError, PlaneGraph, SimpleParams,
                       SIMPLE_FAMILIES, T_a, T_c, T_i, alt_a, alt_c, alt_i,
                       basic_extended_params, canonical_code, extended_eval,
                       frontier_order, map_from_rotations, map_stats,
                       plane_multigraph, simple_family_value,
                       simple_tutte_eval, tutte_poly)
from altdimaps.catalog import (digon_with_omega2_loop, free_loops,
                               loop_star_1, loop_star_omega,
                               loop_star_omega2, posy, ultraloop)
from altdimaps.poly import Poly1, Poly2

from conftest import grid, maps_up_to, plane_suite, theta, wheel


# -- the five order-independent parameter families -----------------------------

def test_simple_families_closed_forms():
    for g in maps_up_to(3):
        edges = sorted(g.edges)
        for name, params in SIMPLE_FAMILIES.items():
            want = simple_family_value(g, name)
            for order in permutations(edges):
                assert simple_tutte_eval(g, params, order=order) == want


def test_simple_family_values():
    g = posy(1)
    assert simple_family_value(g, "zero") == 0
    assert simple_family_value(g, "three_E") == 27
    assert simple_family_value(g, "sign_V") == -1
    assert simple_family_value(g, "sign_af") == -1
    assert simple_family_value(g, "sign_cf") == -1
    assert simple_family_value(free_loops(0), "zero") == 1


# -- symbolic witness identities ------------------------------------------------

W, X, Y, Z = sp.symbols("w x y z")
SYM = SimpleParams(W, X, Y, Z)


def test_witness_identities_symbolic():
    assert sp.simplify(simple_tutte_eval(free_loops(3), SYM) - W ** 3) == 0
    assert sp.simplify(simple_tutte_eval(loop_star_1(2), SYM) - X * W) == 0
    assert sp.simplify(simple_tutte_eval(loop_star_omega(2), SYM) - Y * W) == 0
    assert sp.simplify(simple_tutte_eval(loop_star_omega2(2), SYM) - Z * W) == 0
    assert sp.simplify(simple_tutte_eval(digon_with_omega2_loop(), SYM)
                       - X * Z * W) == 0


def test_order_dependence_factors_into_constraints():
    # every order difference on <=3 edges is a multiple of one of the
    # three pairwise constraints; adding the triple constraint gives an
    # ideal containing every <=3-edge difference, and the triple
    # constraint is not implied by the pairwise ones
    c1 = X * Z - X - Z - W
    c2 = X * Y - X - Y - W
    c3 = Y * Z - Y - Z - W
    c4 = X * Y + X * Z + Y * Z - X * Y * Z
    expected = {sp.factor(W * c) for c in (c1, c2, c3)}
    expected |= {sp.factor(-W * c) for c in (c1, c2, c3)}
    seen = set()
    for g in maps_up_to(3, n_min=2):
        edges = sorted(g.edges)
        base = sp.expand(simple_tutte_eval(g, SYM, order=edges))
        for order in permutations(edges):
            d = sp.factor(base - sp.expand(
                simple_tutte_eval(g, SYM, order=order)))
            if d != 0:
                seen.add(d)
    assert seen and seen <= expected
    gb3 = sp.groebner([c1, c2, c3], W, X, Y, Z)
    assert gb3.reduce(c4)[1] != 0  # c4 is independent
    gb4 = sp.groebner([c1, c2, c3, c4], W, X, Y, Z)
    assert all(gb4.reduce(sp.expand(d))[1] == 0 for d in seen)


def test_families_satisfy_constraints():
    for params in SIMPLE_FAMILIES.values():
        w, x, y, z = params.w, params.x, params.y, params.z
        assert x + z + w == x * z
        assert x + y + w == x * y
        assert y + z + w == y * z
        assert x * z + x * y + y * z == x * y * z


# -- the sixteen-parameter recursion --------------------------------------------

def test_basic_extended_closed_form():
    for alpha, beta, gamma, delta in ((1, 1, 1, 1), (2, 3, 1, 1),
                                      (1, 2, 3, 4), (-1, 2, -3, 5)):
        p = basic_extended_params(alpha, beta, gamma, delta)
        for g in maps_up_to(3):
            st_ = map_stats(g)
            want = (Fraction(alpha) ** st_.n_edges *
                    Fraction(beta) ** st_.n_vertices *
                    Fraction(gamma) ** st_.n_a_faces *
                    Fraction(delta) ** st_.n_c_faces)
            edges = sorted(g.edges)
            for order in (edges, edges[::-1]):
                assert extended_eval(g, p, order=order) == want


def test_extended_sign_family_order_independent():
    # the three-way branch weighted by (a, b, c) = (-1, 1, 1) at every
    # non-triloop edge computes 3^E * (-1)^V; requires b = c and
    # loop coefficients x = 3a, y = 3b, z = 3c, w = 3abc
    p = ExtendedParams(w=-3, x=-3, y=3, z=3, a=-1, b=1, c=1, d=-1, e=1,
                       f=1, g=-1, h=1, i=1, j=-1, k=1, l=1)
    for g in maps_up_to(3):
        st_ = map_stats(g)
        want = (Fraction(3) ** st_.n_edges *
                Fraction(-1) ** st_.n_vertices)
        edges = sorted(g.edges)
        vals = {extended_eval(g, p, order=o) for o in permutations(edges)}
        assert vals == {want}


# -- plane graphs and the Tutte correspondence ----------------------------------

def _tutte_rank_nullity(mg):
    """Independent oracle: the subset-expansion Tutte polynomial."""
    x, y = sp.symbols("x y")
    edges = sorted(mg.edges, key=repr)
    n = len(mg.vertices)

    def rank(subset):
        parent = {v: v for v in mg.vertices}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v
        comps = n
        for (_, u, v) in subset:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                comps -= 1
        return n - comps

    rE = rank(edges)
    total = 0
    for mask in range(2 ** len(edges)):
        sub = [e for i, e in enumerate(edges) if mask >> i & 1]
        total += (x - 1) ** (rE - rank(sub)) * (y - 1) ** (len(sub) - rank(sub))
    return sp.expand(total)


def _poly2_to_sympy(p):
    x, y = sp.symbols("x y")
    return sp.expand(sum(c * x ** i * y ** j for (i, j), c in p.coeffs.items()))


def test_oracle_matches_rank_nullity(suite):
    for name, p in suite.items():
        mg = plane_multigraph(p)
        assert _poly2_to_sympy(tutte_poly(mg)) == _tutte_rank_nullity(mg), name


def test_tutte_correspondence_clockwise(suite):
    for name, p in suite.items():
        want = tutte_poly(plane_multigraph(p))
        g = alt_c(p)
        edges = sorted(g.edges, key=repr)
        for order in (None, edges[::-1], edges[1:] + edges[:1]):
            assert T_c(g, order=order) == want, (name, order)


def test_tutte_correspondence_anticlockwise(suite):
    for name, p in suite.items():
        want = tutte_poly(plane_multigraph(p))
        g = alt_a(p)
        edges = sorted(g.edges, key=repr)
        for order in (None, edges[::-1], edges[1:] + edges[:1]):
            assert T_a(g, order=order) == want, (name, order)


def test_diagonal_correspondence_both_orientations(suite):
    for name, p in suite.items():
        want = tutte_poly(plane_multigraph(p)).diagonal()
        for choice in (0, 1):
            assert T_i(alt_i(p, orientation_choice=choice)) == want, \
                (name, choice)


@pytest.mark.parametrize("p", [wheel(7), wheel(8), grid(3, 3)],
                         ids=["W7", "W8", "grid3x3"])
def test_tutte_correspondence_larger(p):
    want = tutte_poly(plane_multigraph(p), max_edges=16)
    assert T_c(alt_c(p)) == want
    assert T_a(alt_a(p)) == want
    assert T_i(alt_i(p)) == want.diagonal()


@pytest.mark.parametrize("p", [wheel(12), wheel(16), grid(5, 5)],
                         ids=["W12", "W16", "grid5x5"])
def test_tutte_correspondence_frontier_order(p):
    want = tutte_poly(plane_multigraph(p), max_edges=40)
    for alt, T in ((alt_c, T_c), (alt_a, T_a)):
        g = alt(p)
        assert T(g, order=frontier_order(g)) == want
    for choice in (0, 1):
        g = alt_i(p, orientation_choice=choice)
        assert T_i(g, order=frontier_order(g)) == want.diagonal()


def small_plane_graphs(max_edges):
    """Every plane graph without isolated vertices on the edges 0, 1, …
    (at most max_edges of them), one for each rotation system."""
    for m in range(max_edges + 1):
        darts = [(e, end) for e in range(m) for end in (0, 1)]
        for images in permutations(darts):
            succ = dict(zip(darts, images))
            rotations, seen = {}, set()
            for d in darts:
                cycle = []
                while d not in seen:
                    seen.add(d)
                    cycle.append(d)
                    d = succ[d]
                if cycle:
                    rotations[cycle[0]] = cycle
            try:
                yield PlaneGraph.from_rotations(rotations)
            except ValueError:  # positive genus
                pass


def test_frontier_order_on_alt_images(six_edge_maps):
    # The alt images with at most six edges are the maps of genus 0 whose
    # every c-face (alt_c), a-face (alt_a) or in-star (alt_i) has length 2:
    # both sides are computed as sets of canonical codes.  On each of them
    # the frontier order gives the value of the sorted order.
    maps = maps_up_to(5) + six_edge_maps
    planes = list(small_plane_graphs(3))
    for T, cycles, images in (
            (T_c, lambda g: g.sw2, [alt_c(p) for p in planes]),
            (T_a, lambda g: g.sw, [alt_a(p) for p in planes]),
            (T_i, lambda g: g.s1, [alt_i(p, c) for p in planes for c in (0, 1)])):
        selected = [g for g in maps if map_stats(g).genus == 0
                    and all(len(c) == 2 for c in cycles(g).cycles())]
        assert {canonical_code(g) for g in selected} == \
            {canonical_code(g) for g in images}
        for g in selected:
            assert T(g, order=frontier_order(g)) == T(g)


def test_recursions_deeper_than_the_recursion_limit():
    # 600 edges; θ_k has Tutte polynomial x + y + y² + … + y^(k-1)
    k = 300
    p = theta(k)
    want = Poly2({(1, 0): 1, **{(0, j): 1 for j in range(1, k)}})
    assert T_c(alt_c(p)) == want
    assert T_a(alt_a(p)) == want


def test_alt_images_shape(suite):
    for name, p in suite.items():
        eg = p.graph
        for g, two_cell in ((alt_c(p), "c"), (alt_a(p), "a")):
            st_ = map_stats(g)
            assert st_.n_edges == 2 * len(eg.edges)
            assert st_.genus == 0
            faces = st_.n_c_faces if two_cell == "c" else st_.n_a_faces
            assert faces == len(eg.edges), name


# -- the hand-built medial orientation: the reference for alt_i -----------------
#
# The library derives alt_i from alt_c by trial and reflection; these are
# the medial graph and the parity walk that built it before, unchanged.

def medial(p: PlaneGraph) -> EmbeddedGraph:
    """The medial embedded graph: one vertex per edge, one edge per face
    corner (a dart together with its rotation successor).  Around the
    medial vertex of edge e with darts d1, d2 the four corners appear
    clockwise as [corner entering d1, corner leaving d1, corner entering
    d2, corner leaving d2]."""
    eg = p.graph
    succ_inv: Dict[Tuple[Hashable, int], Tuple[Hashable, int]] = {}
    for rot in eg.rotations.values():
        n = len(rot)
        for i, d in enumerate(rot):
            succ_inv[rot[(i + 1) % n]] = d
    # corner id = its first dart; the corner (d, succ(d)) joins the medial
    # vertices of edge(d) and edge(succ(d)).
    rotations: Dict[Hashable, List[Tuple[Hashable, int]]] = {}
    side: Dict[Hashable, int] = {}

    def dart_of(corner: Tuple[Hashable, int]) -> Tuple[Hashable, int]:
        k = side.get(corner, 0)
        side[corner] = k + 1
        if k > 1:
            raise InvariantError(f"corner {corner!r} used more than twice")
        return (corner, k)

    for e in sorted(eg.edges, key=repr):
        rot: List[Tuple[Hashable, int]] = []
        for d in ((e, 0), (e, 1)):
            rot.append(dart_of(succ_inv[d]))  # corner entering d
            rot.append(dart_of(d))            # corner leaving d
        rotations[("m", e)] = rot
    med = EmbeddedGraph(rotations.keys(), rotations)
    if any(len(r) != 4 for r in med.rotations.values()):
        raise InvariantError("medial graph is not 4-regular")
    if med.genus() != eg.genus():
        raise InvariantError("medial construction changed the genus")
    return med


def medial_alt_i(p: PlaneGraph, orientation_choice: int = 0) -> AltDimap:
    """Orient the medial graph so in- and out-darts alternate around every
    vertex.  Each component admits exactly two such orientations; the bit
    selects which one (applied to every component)."""
    if orientation_choice not in (0, 1):
        raise ValueError("orientation_choice must be 0 or 1")
    med = medial(p)
    # Choose a parity bit per medial vertex: the dart at position i of the
    # rotation is incoming iff (i + parity) is even.  The two darts of a
    # medial edge must get opposite kinds, which ties the parities of its
    # endpoints together; propagate by depth-first search.
    pos: Dict[Tuple[Hashable, int], Tuple[Hashable, int]] = {}
    for v, rot in med.rotations.items():
        for i, d in enumerate(rot):
            pos[d] = (v, i)
    parity: Dict[Hashable, int] = {}
    for root in sorted(med.vertices, key=repr):
        if root in parity:
            continue
        parity[root] = orientation_choice
        stack = [root]
        while stack:
            v = stack.pop()
            for d in med.rotations[v]:
                w, j = pos[med.mate(d)]
                i = pos[d][1]
                need = (i + j + 1) % 2  # parity[v] + parity[w] must equal this
                want = (need - parity[v]) % 2
                if w in parity:
                    if parity[w] != want:
                        raise InvariantError("medial graph is not "
                                             "alternately orientable")
                else:
                    parity[w] = want
                    stack.append(w)
    rotations: Dict[Hashable, List[Tuple[Hashable, str]]] = {}
    for v, rot in med.rotations.items():
        rotations[v] = [
            (d[0], "in" if (i + parity[v]) % 2 == 0 else "out")
            for i, d in enumerate(rot)
        ]
    g = map_from_rotations(rotations)
    if map_stats(g).genus != med.genus():
        raise InvariantError("orientation changed the genus")
    return g


# -- the hand-built anticlockwise doubling: the reference for alt_a -------------
#
# The library derives alt_a from alt_c by exchanging σ_ω and σ_ω² and
# swapping the labels of each directed pair; this is the anticlockwise
# branch of the doubling that built it before, unchanged.

def doubled_alt_a(p: PlaneGraph) -> AltDimap:
    """Replace every undirected edge by an antiparallel directed pair.

    Edge e gains directed edges (e, '+') (away from dart (e, 0)) and
    (e, '-') (the reverse).  At a vertex, each dart expands clockwise to
    [incoming, outgoing]."""
    eg = p.graph
    rotations: Dict[Hashable, List[Tuple[Hashable, str]]] = {}
    for v, rot in eg.rotations.items():
        out: List[Tuple[Hashable, str]] = []
        for (e, end) in rot:
            leave = (e, "+") if end == 0 else (e, "-")
            enter = (e, "-") if end == 0 else (e, "+")
            out += [(enter, "in"), (leave, "out")]
        rotations[v] = out
    g = map_from_rotations(rotations)
    st = map_stats(g)
    n_e, n_f = len(eg.edges), sum(1 for f in eg.trace_faces() if f)
    if st.n_a_faces != n_e or st.n_c_faces != n_f:
        raise InvariantError("doubled map fails the face-count identities")
    if st.genus != eg.genus():
        raise InvariantError("doubled map changed the genus")
    return g


def _alt_i_graphs():
    """The plane graphs alt_i is checked on against the reference."""
    graphs = list(small_plane_graphs(3)) + list(plane_suite().values())
    graphs += [wheel(k) for k in range(3, 13)]
    graphs += [grid(3, 3), grid(4, 5), grid(5, 5)]
    graphs += [theta(k) for k in range(1, 12)]
    graphs.append(PlaneGraph.from_rotations({}))
    graphs.append(PlaneGraph.from_rotations({
        "u": [], "v": [("a", 0), ("b", 1)], "w": [("b", 0), ("a", 1)]}))
    return graphs


def test_alt_i_equals_the_medial_orientation():
    for p in _alt_i_graphs():
        for choice in (0, 1):
            g, want = alt_i(p, choice), medial_alt_i(p, choice)
            assert g == want


def test_alt_a_equals_the_anticlockwise_doubling():
    graphs = _alt_i_graphs()
    assert len(graphs) == 606
    for p in graphs:
        assert alt_a(p) == doubled_alt_a(p)


def test_alt_i_in_stars_are_the_2_faces():
    for p in _alt_i_graphs():
        g = alt_i(p, 1)
        assert {frozenset(v) for v in g.vertices()} == \
            {frozenset({(e, 0), (e, 1)}) for e in p.graph.edges}


def test_alt_i_rejects_other_orientations(suite):
    for choice in (2, -1):
        with pytest.raises(ValueError, match="orientation_choice"):
            alt_i(suite["theta"], choice)


def test_medial_is_4_regular(suite):
    for name, p in suite.items():
        if not p.graph.edges:
            continue
        m = medial(p)
        assert all(len(rot) == 4 for rot in m.rotations.values()), name


def test_plane_graph_rejects_positive_genus():
    # K4 drawn with a non-planar rotation system
    with pytest.raises(ValueError):
        PlaneGraph.from_rotations({
            "a": [("e1", 0), ("e2", 0), ("e3", 0)],
            "b": [("e1", 1), ("e4", 0), ("e5", 0)],
            "c": [("e2", 1), ("e6", 0), ("e4", 1)],
            "d": [("e3", 1), ("e6", 1), ("e5", 1)],
        })


def test_T_i_rejects_pure_proper_1_semiloop():
    # a map whose edge 1 is a proper 1-semiloop without being an
    # omega- or omega2-semiloop: the univariate recursion has no case
    from altdimaps import build_map
    g = build_map(range(3), [(0, 1)], [(1, 2)])
    with pytest.raises(ValueError):
        T_i(g, order=[1, 0, 2])


def test_tutte_oracle_bound():
    big = plane_suite()["theta"]
    with pytest.raises(ValueError):
        tutte_poly(plane_multigraph(big), max_edges=2)


def test_poly_types():
    p = Poly2({(1, 0): 1, (0, 1): 1})
    assert p.evaluate(2, 3) == 5
    assert p.diagonal() == Poly1({1: 2})
    assert str(Poly2({(2, 0): 1, (1, 0): 1, (0, 1): 1})) == "x^2 + x + y"
