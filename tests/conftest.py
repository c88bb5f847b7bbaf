"""Shared fixtures: the catalog of small maps and a suite of plane graphs."""

import pytest
from hypothesis import strategies as st

from altdimaps import AltDimap, Perm, PlaneGraph, enumerate_maps


def maps_up_to(n_max, n_min=0):
    """All maps with n_min..n_max edges, up to isomorphism."""
    out = []
    for n in range(n_min, n_max + 1):
        out += enumerate_maps(n, max_edges=max(n, 1))
    return out


@pytest.fixture(scope="session")
def six_edge_maps():
    """The 901 maps with exactly six edges, up to isomorphism."""
    return maps_up_to(6, n_min=6)


def random_maps(max_n=5):
    """Strategy: any pair of permutations of {0..n-1} is a valid map."""
    def build(n, rng1, rng2):
        sw = Perm(dict(zip(range(n), rng1)))
        sw2 = Perm(dict(zip(range(n), rng2)))
        return AltDimap(sw, sw2)
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(st.permutations(range(n)),
                            st.permutations(range(n))).map(
            lambda p: build(n, *p)))


def plane_suite():
    """Named plane graphs (rotations are clockwise dart lists)."""
    return {
        "single_edge": PlaneGraph.from_rotations({
            "u": [("a", 0)], "v": [("a", 1)]}),
        "loop": PlaneGraph.from_rotations({
            "v": [("a", 0), ("a", 1)]}),
        "path2": PlaneGraph.from_rotations({
            "u": [("a", 0)], "m": [("a", 1), ("b", 0)], "v": [("b", 1)]}),
        "triangle": PlaneGraph.from_rotations({
            "u": [("a", 0), ("c", 1)],
            "v": [("b", 0), ("a", 1)],
            "w": [("c", 0), ("b", 1)]}),
        "theta": PlaneGraph.from_rotations({
            "u": [("a", 0), ("b", 0), ("c", 0)],
            "v": [("c", 1), ("b", 1), ("a", 1)]}),
        "bridge_loop": PlaneGraph.from_rotations({
            "u": [("a", 0)],
            "v": [("a", 1), ("b", 0), ("b", 1)]}),
        "square": PlaneGraph.from_rotations({
            "p": [("a", 0), ("d", 1)],
            "q": [("b", 0), ("a", 1)],
            "r": [("c", 0), ("b", 1)],
            "s": [("d", 0), ("c", 1)]}),
    }


def wheel(k):
    """The wheel W_k: hub h and rim vertices r0..r(k-1) placed
    anticlockwise, spokes s<i> = h r<i> and rim edges t<i> = r<i> r<i+1>."""
    rotations = {"h": [("s0", 0)] + [(f"s{i}", 0) for i in range(k - 1, 0, -1)]}
    for i in range(k):
        rotations[f"r{i}"] = [(f"s{i}", 1), (f"t{i}", 0), (f"t{(i - 1) % k}", 1)]
    return PlaneGraph.from_rotations(rotations)


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
    return PlaneGraph.from_rotations(grid_rotations(rows, cols))


def triangulated_grid(rows, cols):
    """The rows × cols grid with a diagonal in every square (see
    grid_rotations): 53 edges for 4 × 6, 56 for 5 × 5, 69 for 5 × 6."""
    return PlaneGraph.from_rotations(grid_rotations(rows, cols, diagonals=True))


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
    return PlaneGraph.from_rotations({
        "u": [(e, 0) for e in names],
        "v": [(e, 1) for e in reversed(names)]})


@pytest.fixture(scope="session")
def suite():
    return plane_suite()
