"""Polynomial and multiplicative invariants, and the plane-graph bridge."""

import random
from fractions import Fraction
from itertools import permutations
from typing import Dict, Hashable, List, Tuple

import pytest
import sympy as sp

from altdimaps import (AltDimap, EmbeddedGraph, ExtendedParams,
                       InvariantError, SimpleParams, build_map,
                       SIMPLE_FAMILIES, T_a, T_c, T_i, alt_a, alt_c, alt_i,
                       basic_extended_params, canonical_code, extended_eval,
                       frontier_order, map_from_rotations, map_stats,
                       invariants, parse_plane_graph, plane_multigraph,
                       reflect, simple_family_value, simple_tutte_eval,
                       trial_power, tutte_poly)
from altdimaps.catalog import (free_loops, loop_star_1, loop_star_omega,
                               loop_star_omega2, posy, ultraloop)
from altdimaps.poly import Poly1, Poly2

from conftest import (K4_TORUS, digon_with_omega2_loop, embedded, grid,
                      maps_up_to, plane_document, plane_suite,
                      rotation_systems, theta, triangulated_grid, wheel)


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


@pytest.mark.parametrize("family", ["x", ["x"], None, 3])
def test_an_unknown_family_is_refused_before_the_map_is_read(family):
    # any unknown family, hashable or not, is a ValueError, raised before
    # the map's counts are taken: a non-map is never read
    for g in (posy(1), None):
        with pytest.raises(ValueError, match="^unknown family "):
            simple_family_value(g, family)


def test_float_parameters_are_read_exactly():
    # a float is the binary fraction it holds, as in basic_extended_params
    result = simple_tutte_eval(ultraloop(), SimpleParams(0.1, 1, 1, 1))
    assert type(result) is Fraction
    assert result == Fraction(0.1) != Fraction(1, 10)
    assert ExtendedParams(*[0.5] * 16).l == Fraction(1, 2)


def test_zero_parameters_and_unknown_families_are_refused():
    for pos in range(4):
        args = [2, 3, 5, 7]
        args[pos] = 0
        with pytest.raises(ValueError, match="^basic invariant needs nonzero "
                           "parameters$"):
            basic_extended_params(*args)
    with pytest.raises(ValueError, match="^unknown family 'nope'$"):
        simple_family_value(ultraloop(), "nope")


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_nonfinite_float_parameters_raise_value_error(bad):
    # no exact rational holds them: refused as bad input, not OverflowError
    with pytest.raises(ValueError):
        SimpleParams(bad, 1, 1, 1)
    with pytest.raises(ValueError):
        ExtendedParams(*[1] * 15, bad)
    for pos in range(4):
        args = [2, 3, 5, 7]
        args[pos] = bad
        with pytest.raises(ValueError):
            basic_extended_params(*args)


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


@pytest.mark.parametrize("name", ["grid5x5", "W9"])
def test_basic_extended_closed_form_on_large_alt_images(name):
    # α^|E|·β^|V|·γ^af·δ^cf on the 80 and 36 edges of alt_c(P), in its
    # frontier order
    g = alt_c(grid(5, 5) if name == "grid5x5" else wheel(9))
    st_ = map_stats(g)
    want = (Fraction(2) ** st_.n_edges * Fraction(3) ** st_.n_vertices *
            Fraction(5) ** st_.n_a_faces * Fraction(7) ** st_.n_c_faces)
    p = basic_extended_params(2, 3, 5, 7)
    assert extended_eval(g, p, frontier_order(g)) == want


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
        edges = list(g.sw.labels)  # repr order; None takes the frontier's
        for order in (edges, edges[::-1], edges[1:] + edges[:1]):
            assert T_c(g, order=order) == want, (name, order)


def test_tutte_correspondence_anticlockwise(suite):
    for name, p in suite.items():
        want = tutte_poly(plane_multigraph(p))
        g = alt_a(p)
        edges = list(g.sw.labels)  # repr order; None takes the frontier's
        for order in (edges, edges[::-1], edges[1:] + edges[:1]):
            assert T_a(g, order=order) == want, (name, order)


def test_anticlockwise_recursion_names_itself():
    # an edge no row of the table fits is reported by T_a, not T_c
    g = build_map(range(4), [(0, 1, 2)], [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="anticlockwise recursion"):
        T_a(g)


def test_diagonal_correspondence_both_orientations(suite):
    for name, p in suite.items():
        want = tutte_poly(plane_multigraph(p)).diagonal()
        for choice in (0, 1):
            assert T_i(alt_i(p, orientation_choice=choice)) == want, \
                (name, choice)


@pytest.mark.parametrize("p", [wheel(7), wheel(8), grid(3, 3)],
                         ids=["W7", "W8", "grid3x3"])
def test_tutte_correspondence_larger(p):
    want = tutte_poly(plane_multigraph(p))
    assert T_c(alt_c(p)) == want
    assert T_a(alt_a(p)) == want
    assert T_i(alt_i(p)) == want.diagonal()


@pytest.mark.parametrize("p", [wheel(12), wheel(16), grid(5, 5)],
                         ids=["W12", "W16", "grid5x5"])
def test_tutte_correspondence_frontier_order(p):
    want = tutte_poly(plane_multigraph(p))
    for alt, T in ((alt_c, T_c), (alt_a, T_a)):
        g = alt(p)
        assert T(g, order=frontier_order(g)) == want
    for choice in (0, 1):
        g = alt_i(p, orientation_choice=choice)
        assert T_i(g, order=frontier_order(g)) == want.diagonal()


def spanning_tree_count(eg):
    """Kirchhoff's count for a connected graph: the determinant of its
    Laplacian with the last row and column struck out, by Bareiss's
    fraction-free elimination in ints.  That minor is positive definite,
    so every pivot is positive and no row is swapped."""
    index = {v: i for i, v in enumerate(sorted(eg.vertices, key=repr))}
    n = len(index) - 1
    m = [[0] * (n + 1) for _ in range(n + 1)]
    for e in eg.edges:
        u, v = map(index.__getitem__, eg.endpoints(e))
        if u != v:
            m[u][u] += 1
            m[v][v] += 1
            m[u][v] -= 1
            m[v][u] -= 1
    prev = 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return m[n - 1][n - 1] if n else 1


def plane_dual(eg):
    """The dual of a plane graph: a vertex for each face of trace_faces,
    whose darts, in the face's order, are its rotation; each edge keeps
    its darts, so it joins the faces on its two sides."""
    faces = dict(enumerate(eg.trace_faces()))
    return EmbeddedGraph(faces, faces)


def test_tutte_recursions_on_the_triangulated_4x5_grid_by_closed_forms():
    # Checks computed without sweep or frontier, which the recursions and
    # the oracle share: T(1, 1) is the spanning-tree count, T(2, 2) is
    # 2^|E|, and the dual swaps x and y.
    assert spanning_tree_count(grid(5, 5)) == 557_568_000
    p = triangulated_grid(4, 5)
    dual = plane_dual(p)
    assert dual.genus() == 0 and len(dual.vertices) == 25
    trees, n_e = spanning_tree_count(p), len(p.edges)
    assert spanning_tree_count(dual) == trees
    values = []
    for eg in (p, dual):
        tc, ta, ti = T_c(alt_c(eg)), T_a(alt_a(eg)), T_i(alt_i(eg))
        assert tc == ta and ti == tc.diagonal()
        assert tc.evaluate(1, 1) == ti.evaluate(1) == trees
        assert tc.evaluate(2, 2) == ti.evaluate(2) == 2 ** n_e
        values.append(tc)
    primal, of_dual = values
    assert of_dual == Poly2({(j, i): c for (i, j), c in primal.coeffs.items()})
    assert of_dual != primal


def small_plane_graphs(max_edges):
    """Every plane graph without isolated vertices on the edges 0, 1, …
    (at most max_edges of them), one for each rotation system."""
    return [eg for eg in rotation_systems(max_edges)
            if all(eg.rotations.values()) and eg.genus() == 0]


def test_frontier_order_on_alt_images(six_edge_maps):
    # The alt images with at most six edges are the maps of genus 0 whose
    # every c-face (alt_c), a-face (alt_a) or in-star (alt_i) has length 2:
    # both sides are computed as sets of canonical codes.  On each of them
    # the frontier order gives the value of the repr order.
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
            assert T(g, order=frontier_order(g)) == T(g, list(g.sw.labels))


def _value_or_error(T, g, order):
    try:
        return "value", T(g, order)
    except ValueError as exc:
        return "error", str(exc)


def test_default_order_matches_repr_order(six_edge_maps):
    # With no order T_c, T_a and T_i sweep an alt image of a plane graph in
    # its frontier order and any other map in repr order.  On all 1,122
    # maps with at most six edges that gives the value, or the ValueError
    # text, of the explicit repr order; and the alt_c images are picked by
    # the same rule as map_stats reads it.
    for g in maps_up_to(5) + six_edge_maps:
        for T in (T_c, T_a, T_i):
            assert _value_or_error(T, g, None) == \
                _value_or_error(T, g, list(g.sw.labels)), (T.__name__, g)
        st = map_stats(g)
        assert invariants._is_alt_c_image(g) == (
            st.genus == 0 and all(len(c) == 2 for c in g.sw2.cycles())), g


def test_T_c_takes_one_value_on_alt_c_images(six_edge_maps):
    # The maps of genus 0 whose c-faces all have length 2, the alt_c
    # images: T_c takes one value in every order up to four edges, and in
    # a fixed sample of 40 orders (and repr order) at six.
    rng = random.Random(23)
    counts = {}
    for g in maps_up_to(5) + six_edge_maps:
        if map_stats(g).genus or any(len(c) != 2 for c in g.sw2.cycles()):
            continue
        counts[g.n_edges] = counts.get(g.n_edges, 0) + 1
        labels = list(g.sw.labels)
        if g.n_edges <= 4:
            orders = list(permutations(labels))
        else:
            orders = [labels] + [rng.sample(labels, len(labels))
                                 for _ in range(40)]
        assert len({T_c(g, list(order)) for order in orders}) == 1, g
    assert counts == {0: 1, 2: 2, 4: 7, 6: 26}


def test_every_recursion_validates_its_order(suite):
    # one resolver numbers a caller's order for all five recursions: it
    # must be a permutation of the edges, and may be any iterable
    three_e = SIMPLE_FAMILIES["three_E"]
    basic = basic_extended_params(2, 3, 5, 7)
    for name in ("triangle", "path2"):
        p = suite[name]
        for run, g in (
                (T_c, alt_c(p)), (T_a, alt_a(p)), (T_i, alt_i(p)),
                (lambda g, order: extended_eval(g, basic, order), alt_c(p)),
                (lambda g, order: simple_tutte_eval(g, three_e, order), alt_c(p))):
            edges = list(g.sw.labels)[::-1]
            for bad in (edges[:-1], edges[:-1] + edges[:1],
                        edges[:-1] + [("unknown", "+")]):
                with pytest.raises(ValueError, match="^order must be a "
                                   "permutation of the edge set$"):
                    run(g, bad)
            assert run(g, (e for e in edges)) == run(g, edges), name


def test_an_order_that_is_no_iterable_is_refused():
    # an int or a float names no edges: the resolver refuses it with its
    # ValueError, not the TypeError of iterating over it
    three_e = SIMPLE_FAMILIES["three_E"]
    basic = basic_extended_params(2, 3, 5, 7)
    p = theta(2)
    for run, g in (
            (T_c, alt_c(p)), (T_a, alt_a(p)), (T_i, alt_i(p)),
            (lambda g, order: extended_eval(g, basic, order), alt_c(p)),
            (lambda g, order: simple_tutte_eval(g, three_e, order), alt_c(p))):
        for bad in (5, 2.5):
            with pytest.raises(ValueError, match="^order must be a "
                               "permutation of the edge set$"):
                run(g, bad)


def test_default_order_is_the_frontier_order_of_plane_images(suite, monkeypatch):
    # frontier_order is asked for the map each recursion sweeps: alt_c(P)
    # itself for T_c, reflect(alt_a(P)) for T_a, trial²(reflect(alt_i(P)))
    # for T_i.  It is not asked for posy(1) (genus 1), alt_a(triangle)
    # (genus 0, c-faces of length 3), a genus-1 map whose c-faces all have
    # length 2, nor when an order is given.
    asked = []
    frontier = invariants._frontier
    monkeypatch.setattr(invariants, "_frontier",
                        lambda g: asked.append(g) or frontier(g))
    for name, p in suite.items():
        for T, g, swept in (
                (T_c, alt_c(p), alt_c(p)),
                (T_a, alt_a(p), reflect(alt_a(p))),
                (T_i, alt_i(p, 0), trial_power(reflect(alt_i(p, 0)), 2)),
                (T_i, alt_i(p, 1), trial_power(reflect(alt_i(p, 1)), 2))):
            asked.clear()
            T(g)
            assert asked == [swept], (name, T.__name__)
            asked.clear()
            T(g, list(g.sw.labels))
            assert asked == [], (name, T.__name__)
    torus = build_map([0, 1, 2, 3], [(0, 1, 2, 3)], [(0, 2), (1, 3)])
    assert map_stats(torus).genus == 1
    for T, g in ((T_c, posy(1)), (T_a, posy(1)), (T_i, posy(1)),
                 (T_c, alt_a(suite["triangle"])), (T_c, torus)):
        _value_or_error(T, g, None)
        assert asked == [], (T.__name__, g)


def test_T_c_domain_up_to_five_edges():
    # Brute force over every order of every map with 1–5 edges.  Per edge
    # count: the maps, those on which T_c is defined in every order, those
    # of them that have genus 1 (the rest have genus 0), and the other maps
    # that take more than one value over the orders that work.  On every
    # map defined in every order T_c takes one value.
    counts = {n: [0, 0, 0, 0] for n in range(1, 6)}
    for g in maps_up_to(5, n_min=1):
        values, undefined = set(), False
        for order in permutations(g.sw.labels):
            try:
                values.add(T_c(g, list(order)))
            except ValueError:
                undefined = True
        row = counts[g.n_edges]
        row[0] += 1
        if undefined:
            row[3] += len(values) > 1
        else:
            assert len(values) == 1, g
            genus = map_stats(g).genus
            assert genus in (0, 1), g
            row[1] += 1
            row[2] += genus
    assert counts == {1: [1, 1, 0, 0], 2: [4, 4, 0, 0], 3: [11, 10, 1, 0],
                      4: [43, 31, 3, 1], 5: [161, 81, 12, 20]}


def test_recursions_deeper_than_the_recursion_limit():
    # 600 edges; θ_k has Tutte polynomial x + y + y² + … + y^(k-1)
    k = 300
    p = theta(k)
    want = Poly2({(1, 0): 1, **{(0, j): 1 for j in range(1, k)}})
    assert T_c(alt_c(p)) == want
    assert T_a(alt_a(p)) == want


def test_alt_images_shape(suite):
    for name, eg in suite.items():
        for g, two_cell in ((alt_c(eg), "c"), (alt_a(eg), "a")):
            st_ = map_stats(g)
            assert st_.n_edges == 2 * len(eg.edges)
            assert st_.genus == 0
            faces = st_.n_c_faces if two_cell == "c" else st_.n_a_faces
            assert faces == len(eg.edges), name


def test_the_plane_builders_are_plane(suite):
    graphs = [*suite.values(), *map(wheel, range(3, 17)), grid(5, 5),
              triangulated_grid(5, 5), theta(300)]
    assert {eg.genus() for eg in graphs} == {0}


def test_alt_images_keep_the_genus():
    # on every rotation system with at most three edges, of genus 0 or 1
    graphs = list(rotation_systems(3))
    assert len(graphs) == 2241
    for eg in graphs:
        gam = eg.genus()
        st_ = map_stats(alt_c(eg))
        assert st_.genus == gam
        assert st_.n_c_faces == len(eg.edges)
        assert st_.n_a_faces == sum(1 for f in eg.trace_faces() if f)
        for g in (alt_a(eg), alt_i(eg, 0), alt_i(eg, 1)):
            assert map_stats(g).genus == gam


def test_clockwise_recursion_on_genus_1_alt_c_images():
    # the alt_c images of the genus-1 rotation systems with at most three
    # edges and no dartless vertex: T_c is defined in every order, but
    # takes one value on all but one of them, and no value is the Tutte
    # polynomial of the graph
    images = {}
    for eg in rotation_systems(3):
        if eg.genus() == 1 and all(eg.rotations.values()):
            images.setdefault(canonical_code(alt_c(eg)), eg)
    assert len(images) == 9
    found = []
    for eg in images.values():
        g = alt_c(eg)
        values = {T_c(g, order=order) for order in permutations(g.edges)}
        found.append((map_stats(g), tutte_poly(plane_multigraph(eg)), values))
    assert sum(st_.n_components == 1 for st_, _, _ in found) == 7
    assert not any(t in values for _, t, values in found)
    several = [row for row in found if len(row[2]) > 1]
    assert len(several) == 1
    st_, t, values = several[0]
    assert (st_.n_edges, st_.n_vertices, st_.n_a_faces, st_.n_c_faces) == \
        (6, 2, 1, 3)
    assert t == Poly2({(1, 1): 1, (0, 2): 1})
    assert values == {Poly2({(2, 1): 1}), Poly2({(2, 0): 1, (1, 1): 1})}
    # the bouquet of two loops on the torus
    bouquet = embedded({"v": [("a", 0), ("b", 0), ("a", 1), ("b", 1)]})
    assert bouquet.genus() == 1
    assert T_c(alt_c(bouquet)) == Poly2({(1, 1): 1})
    assert tutte_poly(plane_multigraph(bouquet)) == Poly2({(0, 2): 1})


# -- the hand-built medial orientation: the reference for alt_i -----------------
#
# The library derives alt_i from alt_c by trial and reflection; these are
# the medial graph and the parity walk that built it before, unchanged.

def medial(eg: EmbeddedGraph) -> EmbeddedGraph:
    """The medial embedded graph: one vertex per edge, one edge per face
    corner (a dart together with its rotation successor).  Around the
    medial vertex of edge e with darts d1, d2 the four corners appear
    clockwise as [corner entering d1, corner leaving d1, corner entering
    d2, corner leaving d2]."""
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


def medial_alt_i(eg: EmbeddedGraph, orientation_choice: int = 0) -> AltDimap:
    """Orient the medial graph so in- and out-darts alternate around every
    vertex.  Each component admits exactly two such orientations; the bit
    selects which one (applied to every component)."""
    if orientation_choice not in (0, 1):
        raise ValueError("orientation_choice must be 0 or 1")
    med = medial(eg)
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


# -- the hand-built clockwise doubling: the reference for alt_c -----------------
#
# The library reads alt_c off the traced faces of P; this is the rotation
# expansion that built it before, unchanged.

def doubled_alt_c(eg: EmbeddedGraph) -> AltDimap:
    """Replace every undirected edge by an antiparallel directed pair.

    Edge e gains directed edges (e, '+') (away from dart (e, 0)) and
    (e, '-') (the reverse).  At a vertex, each dart expands clockwise to
    [outgoing, incoming]."""
    rotations: Dict[Hashable, List[Tuple[Hashable, str]]] = {}
    for v, rot in eg.rotations.items():
        out: List[Tuple[Hashable, str]] = []
        for (e, end) in rot:
            leave = (e, "+") if end == 0 else (e, "-")
            enter = (e, "-") if end == 0 else (e, "+")
            out += [(leave, "out"), (enter, "in")]
        rotations[v] = out
    return map_from_rotations(rotations)


# -- the hand-built anticlockwise doubling: the reference for alt_a -------------
#
# The library derives alt_a from alt_c by exchanging σ_ω and σ_ω² and
# swapping the labels of each directed pair; this is the anticlockwise
# branch of the doubling that built it before, unchanged.

def doubled_alt_a(eg: EmbeddedGraph) -> AltDimap:
    """Replace every undirected edge by an antiparallel directed pair.

    Edge e gains directed edges (e, '+') (away from dart (e, 0)) and
    (e, '-') (the reverse).  At a vertex, each dart expands clockwise to
    [incoming, outgoing]."""
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
    graphs.append(embedded({}))
    graphs.append(embedded({
        "u": [], "v": [("a", 0), ("b", 1)], "w": [("b", 0), ("a", 1)]}))
    return graphs


def test_alt_i_equals_the_medial_orientation():
    for p in _alt_i_graphs():
        for choice in (0, 1):
            g, want = alt_i(p, choice), medial_alt_i(p, choice)
            assert g == want


def test_alt_c_equals_the_clockwise_doubling():
    for p in _alt_i_graphs():
        g, want = alt_c(p), doubled_alt_c(p)
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
            {frozenset({(e, 0), (e, 1)}) for e in p.edges}


def test_alt_i_rejects_other_orientations(suite):
    for choice in (2, -1):
        with pytest.raises(ValueError, match="orientation_choice"):
            alt_i(suite["theta"], choice)


def test_medial_is_4_regular(suite):
    for name, p in suite.items():
        if not p.edges:
            continue
        m = medial(p)
        assert all(len(rot) == 4 for rot in m.rotations.values()), name


def test_plane_graph_rejects_positive_genus(suite):
    with pytest.raises(ValueError, match="^total genus 1; not plane$"):
        parse_plane_graph(plane_document("k4", K4_TORUS))
    # one non-plane component makes the whole graph non-plane
    triangle = suite["triangle"].rotations
    with pytest.raises(ValueError, match="total genus 1"):
        parse_plane_graph(plane_document("k4_triangle",
                                         {**K4_TORUS, **triangle}))


def test_plane_graph_accepts_plane_components(suite):
    theta = {f"t{v}": [(f"t{e}", end) for e, end in rot]
             for v, rot in suite["theta"].rotations.items()}
    p = parse_plane_graph(plane_document(
        "three", {**suite["triangle"].rotations, **theta, "lone": []}))
    assert len(p.components()) == 3
    assert map_stats(alt_c(p)).genus == 0


def test_embedded_graph_rejects_rotations_off_its_vertices():
    with pytest.raises(ValueError, match="'w'"):
        EmbeddedGraph(["u"], {"u": [], "w": [("a", 0), ("a", 1)]})


def test_T_i_rejects_pure_proper_1_semiloop():
    # a map whose edge 1 is a proper 1-semiloop without being an
    # omega- or omega2-semiloop: the univariate recursion has no case
    from altdimaps import build_map
    g = build_map(range(3), [(0, 1)], [(1, 2)])
    with pytest.raises(ValueError, match="in-star"):
        T_i(g, order=[1, 0, 2])


def test_poly_types():
    p = Poly2({(1, 0): 1, (0, 1): 1})
    assert p.evaluate(2, 3) == 5
    assert p.diagonal() == Poly1({1: 2})
    assert str(Poly2({(2, 0): 1, (1, 0): 1, (0, 1): 1})) == "x^2 + x + y"
