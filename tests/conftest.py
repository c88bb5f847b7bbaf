"""Shared fixtures: the catalog of small maps and a suite of plane graphs."""

from itertools import permutations

import pytest
from hypothesis import strategies as st

from altdimaps import (AltDimap, EmbeddedGraph, Perm, commute_check,
                       enumerate_maps, reduce_map, rotation_system)
from altdimaps.catalog import add_omega_loop, add_omega2_loop, loop_star_1
from altdimaps.core import ALL_MU, MU1


def maps_up_to(n_max, n_min=0):
    """All maps with n_min..n_max edges, up to isomorphism."""
    out = []
    for n in range(n_min, n_max + 1):
        out += enumerate_maps(n)
    return out


@pytest.fixture(scope="session")
def six_edge_maps():
    """The 901 maps with exactly six edges, up to isomorphism."""
    return maps_up_to(6, n_min=6)


def digon_with_omega2_loop():
    """L_{2,1} with an ω²-loop added at the head of edge 1."""
    return add_omega2_loop(loop_star_1(2), 1, "e")


def witness_a():
    """L_{2,1} (edges 0, 1) with an ω²-loop 'e' and an ω-loop 'f' both at
    the head of edge 1; reducing its four edges in any order peels off one
    loop of each type."""
    return add_omega_loop(digon_with_omega2_loop(), "e", "f")


def disjoint_union(*maps):
    """The disjoint union of the maps, edge e of the i-th named (i, e)."""
    sw, sw2 = {}, {}
    for i, g in enumerate(maps):
        sw.update({(i, e): (i, g.sw(e)) for e in g.edges})
        sw2.update({(i, e): (i, g.sw2(e)) for e in g.edges})
    return AltDimap(Perm(sw), Perm(sw2))


def semiloop_pair(g, e, f):
    """The global definition of a semiloop pair: f is e, or deleting e and
    f from the underlying embedded graph raises k - γ.  The reference for
    the ω-semiloop bit (f = σ_ω²(e)) and the ω²-semiloop bit (f =
    σ_ω⁻¹(e))."""
    if f == e:
        return True
    eg = rotation_system(g)
    return eg.delete_edges({e, f}).k_minus_gamma() > eg.k_minus_gamma()


def all_pairs_commute(g):
    """Whether the two composite minors of commute_check agree for every
    pair of distinct edges and every pair of reduction types."""
    edges = g.sw.labels
    return all(commute_check(g, e, mu, f, nu)[0]
               for i, e in enumerate(edges) for f in edges[i + 1:]
               for mu in ALL_MU for nu in ALL_MU)


def altdimap_walk(g, key, floor=0):
    """The reference minor walk, as the library walked before it kept
    image triples: every child is a map made by reduce_map, and a labelled
    minor met before is skipped as a map when it is popped; yields (key(m),
    m) for the first minor m met with each key, children pushed in label
    order (a triloop by one type), none below floor."""
    met, seen = set(), set()
    stack = [g] if g.n_edges >= floor else []
    while stack:
        m = stack.pop()
        if m in met:
            continue
        met.add(m)
        k = key(m)
        if k in seen:
            continue
        seen.add(k)
        yield k, m
        if m.n_edges > floor:
            t = m.triple
            for i, e in enumerate(m.sw.labels):
                types = (MU1,) if any(p[i] == i for p in t) else ALL_MU
                stack += (reduce_map(m, e, mu) for mu in types)


def totally_commutative_brute(g):
    """The reference for is_totally_reduction_commutative: every labelled
    minor of G (G included), met by altdimap_walk, passes
    all_pairs_commute, which compares the composite minors of every pair
    directly."""
    return all(all_pairs_commute(m) for _, m in altdimap_walk(g, lambda m: m))


def labelings(g, rng):
    """g under its own int labels, shuffled strings (some with characters
    that are escaped) and shuffled tuples, some of which do not compare."""
    yield g
    n = g.n_edges
    strs = ["e0", "e1", "E2", "e 3", "e#4", "e10"][:n]
    tuples = [(k, "t") if k % 2 else ("t", k) for k in range(10, 10 + n)]
    for names in (strs, tuples):
        rng.shuffle(names)
        name = dict(zip(sorted(g.edges), names))
        yield AltDimap(Perm({name[e]: name[g.sw(e)] for e in g.edges}),
                       Perm({name[e]: name[g.sw2(e)] for e in g.edges}))


def random_maps(max_n=5, min_n=1):
    """Strategy: any pair of permutations of {0..n-1} is a valid map."""
    def build(n, rng1, rng2):
        sw = Perm(dict(zip(range(n), rng1)))
        sw2 = Perm(dict(zip(range(n), rng2)))
        return AltDimap(sw, sw2)
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.tuples(st.permutations(range(n)),
                            st.permutations(range(n))).map(
            lambda p: build(n, *p)))


def embedded(rotations):
    """The embedded graph whose vertices are the keys of rotations."""
    return EmbeddedGraph(rotations, rotations)


def rotation_systems(max_edges):
    """Every rotation system on the edges 0, 1, … (at most max_edges of
    them), plane or not: one for each permutation of the darts, whose
    cycles are the vertices, with no, one or two isolated vertices."""
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
            for lone in ([], ["x"], ["x", "y"]):
                yield EmbeddedGraph([*rotations, *lone], rotations)


def plane_suite():
    """Named plane graphs (rotations are clockwise dart lists)."""
    return {
        "single_edge": embedded({
            "u": [("a", 0)], "v": [("a", 1)]}),
        "loop": embedded({
            "v": [("a", 0), ("a", 1)]}),
        "path2": embedded({
            "u": [("a", 0)], "m": [("a", 1), ("b", 0)], "v": [("b", 1)]}),
        "triangle": embedded({
            "u": [("a", 0), ("c", 1)],
            "v": [("b", 0), ("a", 1)],
            "w": [("c", 0), ("b", 1)]}),
        "theta": embedded({
            "u": [("a", 0), ("b", 0), ("c", 0)],
            "v": [("c", 1), ("b", 1), ("a", 1)]}),
        "bridge_loop": embedded({
            "u": [("a", 0)],
            "v": [("a", 1), ("b", 0), ("b", 1)]}),
        "square": embedded({
            "p": [("a", 0), ("d", 1)],
            "q": [("b", 0), ("a", 1)],
            "r": [("c", 0), ("b", 1)],
            "s": [("d", 0), ("c", 1)]}),
    }


# K4 drawn with a non-planar rotation system
K4_TORUS = {
    "a": [("e1", 0), ("e2", 0), ("e3", 0)],
    "b": [("e1", 1), ("e4", 0), ("e5", 0)],
    "c": [("e2", 1), ("e6", 0), ("e4", 1)],
    "d": [("e3", 1), ("e6", 1), ("e5", 1)],
}


def wheel_rotations(k):
    """Rotations of the wheel W_k: hub h and rim vertices r0..r(k-1)
    placed anticlockwise, spokes s<i> = h r<i> and rim edges t<i> =
    r<i> r<i+1>."""
    rotations = {"h": [("s0", 0)] + [(f"s{i}", 0) for i in range(k - 1, 0, -1)]}
    for i in range(k):
        rotations[f"r{i}"] = [(f"s{i}", 1), (f"t{i}", 0), (f"t{(i - 1) % k}", 1)]
    return rotations


def wheel(k):
    """The wheel W_k (see wheel_rotations)."""
    return embedded(wheel_rotations(k))


def grid_rotations(rows, cols, diagonals=False):
    """Rotations of the rows × cols grid of vertices p<i>_<j> at (i, j):
    edge h<i>_<j> joins (i, j) to (i, j+1) and v<i>_<j> joins (i, j) to
    (i+1, j), the row index growing upwards.  With diagonals, every square
    gains the diagonal d<i>_<j> from (i, j) to (i+1, j+1), and the
    clockwise rotation at p<i>_<j> is N, NE, E, S, SW, W."""
    rotations = {}
    for i in range(rows):
        for j in range(cols):
            north = [(f"v{i}_{j}", 0)] if i + 1 < rows else []
            east = [(f"h{i}_{j}", 0)] if j + 1 < cols else []
            south = [(f"v{i - 1}_{j}", 1)] if i else []
            west = [(f"h{i}_{j - 1}", 1)] if j else []
            ne = [(f"d{i}_{j}", 0)] if diagonals and north and east else []
            sw = [(f"d{i - 1}_{j - 1}", 1)] if diagonals and south and west else []
            rotations[f"p{i}_{j}"] = north + ne + east + south + sw + west
    return rotations


def grid(rows, cols):
    """The rows × cols grid (see grid_rotations)."""
    return embedded(grid_rotations(rows, cols))


def triangulated_grid(rows, cols):
    """The rows × cols grid with a diagonal in every square (see
    grid_rotations): 53 edges for 4 × 6, 56 for 5 × 5, 69 for 5 × 6."""
    return embedded(grid_rotations(rows, cols, diagonals=True))


def plane_document(name, rotations):
    """The plane-graph document of a rotation system whose vertex names
    and edge labels are strings without whitespace or ':'; dart (e, end)
    is written e.end."""
    lines = [f"planegraph {name}"]
    lines += [f"vertex {v}: " + " ".join(f"{e}.{end}" for e, end in rot)
              for v, rot in rotations.items()]
    edges = sorted({e for rot in rotations.values() for e, _ in rot})
    lines += [f"edge {e}: {e}.0 {e}.1" for e in edges]
    return "\n".join(lines) + "\n"


def grid_document(rows, cols):
    """The plane-graph document of grid(rows, cols)."""
    return plane_document(f"grid{rows}x{cols}", grid_rotations(rows, cols))


def theta(k):
    """The theta graph θ_k: k parallel edges e000.. between u and v."""
    names = [f"e{i:03d}" for i in range(k)]
    return embedded({
        "u": [(e, 0) for e in names],
        "v": [(e, 1) for e in reversed(names)]})


@pytest.fixture(scope="session")
def suite():
    return plane_suite()
