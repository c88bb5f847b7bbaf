"""The memoised deletion–contraction Tutte oracle against the plain
recursion it replaced and against closed forms."""

from hypothesis import example, given, settings, strategies as st

from altdimaps import Multigraph, plane_multigraph, tutte_poly
from altdimaps.poly import Poly2

from conftest import grid, theta, wheel


def reference_tutte(g):
    """The oracle as it was: no memo, always the first listed edge, a new
    vertex set and edge list per step."""

    def n_components(vs, es):
        parent = {v: v for v in vs}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for _, u, v in es:
            parent[find(u)] = find(v)
        return len({find(v) for v in vs})

    def delete(vs, es, eid):
        return vs, [e for e in es if e[0] != eid]

    def contract(vs, es, eid):
        (u, v), = [(a, b) for i, a, b in es if i == eid]
        if u == v:
            return delete(vs, es, eid)
        merged = min(u, v, key=repr)

        def m(x):
            return merged if x in (u, v) else x

        return ((vs - {u, v}) | {merged},
                [(i, m(a), m(b)) for i, a, b in es if i != eid])

    def rec(vs, es):
        if not es:
            return Poly2.one()
        eid, u, v = es[0]
        if u == v:
            return rec(*delete(vs, es, eid)) * Poly2.var(1)
        if n_components(*delete(vs, es, eid)) > n_components(vs, es):
            return rec(*contract(vs, es, eid)) * Poly2.var(0)
        return rec(*delete(vs, es, eid)) + rec(*contract(vs, es, eid))

    return rec(g.vertices, list(g.edges))


@st.composite
def multigraphs(draw, max_vertices=6, max_edges=10):
    """Loops, parallel edges, isolated vertices and several components;
    the edge ids are a shuffled range, so their repr order is not the
    listed order."""
    n = draw(st.integers(0, max_vertices))
    ends = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                   st.integers(0, n - 1)),
                         max_size=max_edges)) if n else []
    ids = draw(st.permutations(range(len(ends))))
    return Multigraph(range(n), [(i, u, v) for i, (u, v) in zip(ids, ends)])


@settings(max_examples=300, deadline=None)
@given(g=multigraphs())
@example(g=Multigraph([], []))
@example(g=Multigraph(range(3), []))
@example(g=Multigraph(range(2), [(0, 0, 0), (1, 0, 1), (2, 1, 0), (3, 1, 1)]))
@example(g=Multigraph(range(5), [(0, 0, 1), (1, 1, 2), (2, 2, 0), (3, 3, 4),
                                 (4, 3, 4)]))
def test_oracle_matches_plain_deletion_contraction(g):
    assert tutte_poly(g) == reference_tutte(g)


def lucas(n):
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_wheel_spanning_trees():
    # W_k has L_2k − 2 spanning trees; T(2, 2) = 2^|E| for every graph
    for k in range(3, 17):
        t = tutte_poly(plane_multigraph(wheel(k)))
        assert t.evaluate(1, 1) == lucas(2 * k) - 2, k
        assert t.evaluate(2, 2) == 2 ** (2 * k), k


def test_grid_5x5_spanning_trees():
    t = tutte_poly(plane_multigraph(grid(5, 5)))
    assert t.evaluate(1, 1) == 557_568_000
    assert t.evaluate(2, 2) == 2 ** 40


def test_theta_300():
    want = Poly2({(1, 0): 1, **{(0, j): 1 for j in range(1, 300)}})
    assert tutte_poly(plane_multigraph(theta(300))) == want


def test_theta_1000_deeper_than_the_recursion_limit():
    # the deletion chain is 1000 edges deep; the walk keeps no Python frame
    # per edge
    want = Poly2({(1, 0): 1, **{(0, j): 1 for j in range(1, 1000)}})
    assert tutte_poly(plane_multigraph(theta(1000))) == want
