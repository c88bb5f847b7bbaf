"""The level sweep against the memoised depth-first walk it replaced.

multigraph.sweep evaluates the map recursions and the Tutte oracle level by
level, merging equal states within a level.  The reference below is the
depth-first walk on an explicit stack that did this before, with the
engine's row generator and the oracle's expansion, unchanged.  Both must
give the same whole polynomials (and rationals) on the plane graphs below:
in frontier order on all of them, and in the default order on those with at
most 12 edges.
"""

from typing import Any, Callable, Dict, Generator, Hashable, List, Tuple

import pytest

from altdimaps import (T_a, T_c, T_i, alt_a, alt_c, alt_i, extended_eval,
                       frontier_order, invariants, plane_multigraph,
                       tutte_poly)
from altdimaps.core import EdgeClass
from altdimaps.minors import _reduce
from altdimaps.multigraph import _joined, _renumber, frontier
from altdimaps.poly import Poly2

from conftest import grid, plane_suite, triangulated_grid, wheel
from test_engine import GENERIC


def evaluate(root: Any, key: Callable[[Any], Hashable],
             expand: Callable[[Any], Generator]) -> Any:
    """The value of the state root, where expand(state) is a generator
    that yields the states its value needs, receives the value of each
    and returns its own.  Each value is memoised under key(state) for the
    duration of the call.  The walk runs depth first on an explicit stack,
    in the order the states are yielded, so it needs no Python recursion
    and the first error met is the one raised."""
    memo: Dict[Hashable, Any] = {}
    stack: List[Tuple[Hashable, Generator]] = []  # (memo key, expansion)
    state, value = root, None
    while True:
        if state is not None:
            k = key(state)
            value = memo.get(k)
            if value is None:
                stack.append((k, expand(state)))
        if not stack:
            return value
        k, gen = stack[-1]
        try:
            state = gen.send(value)
        except StopIteration as done:
            stack.pop()
            value = memo[k] = done.value
            state = None


def dfs_recurse(g, order, cases, one, zero, name):
    """The engine as it was: memo keyed by (depth, σ_ω, σ_ω²)."""
    rem = list(map(g.number, invariants._resolve_order(g, order)))

    def row(state):
        # yields each reduced state with its depth, receives its value
        s, i = state
        if i == len(rem):
            return one
        e = rem[i]
        c = EdgeClass(*s, e)
        terms = next((terms for test, terms in cases if test(c)), None)
        if terms is None:
            raise ValueError(f"edge {g.sw.labels[e]!r} fits no case of the "
                             f"{name} recursion")
        total = None
        for coeff, mu in terms:
            if coeff is not None and not coeff:
                continue
            sub = yield tuple(map(tuple, _reduce(*s, e, mu))), i + 1
            term = sub if coeff is None else coeff * sub
            total = term if total is None else total + term
        return zero if total is None else total

    return evaluate((g.arrays, 0), lambda st: (st[1], st[0][0], st[0][2]), row)


def dfs_tutte_poly(g):
    """The oracle as it was, on the same states and edge order."""
    ends = [e[1:] for e in sorted(g.edges, key=lambda e: repr(e[0]))]
    x, y = Poly2.var(0), Poly2.var(1)

    def expand(s: Tuple[int, ...]):
        if not s:
            return Poly2.one()
        u, v, rest = s[0], s[1], s[2:]
        if u == v:
            return y * (yield _renumber(rest))
        if not _joined(rest, u, v):
            return x * (yield _renumber(rest, v, u))
        return (yield _renumber(rest)) + (yield _renumber(rest, v, u))

    root = _renumber([w for i in frontier(ends) for w in ends[i]])
    return evaluate(root, lambda s: s, expand)


def graphs():
    out = dict(plane_suite())
    out.update((f"W{k}", wheel(k)) for k in range(3, 17))
    out.update((f"grid{r}x{c}", grid(r, c)) for r, c in ((3, 3), (4, 5), (5, 5)))
    out.update((f"tri{r}x{c}", triangulated_grid(r, c)) for r, c in ((3, 3), (4, 5)))
    return out


def recursions(p, ordered):
    """(name, thunk) for every recursion on the images of p, in frontier
    order if ordered, else in the default order.  The frontier order is
    the image's own, but alt_c's for alt_a (which has alt_c's labels), as
    in `altdimaps tutte`."""
    c = alt_c(p)
    runs = [("T_c", T_c, c, c), ("T_a", T_a, alt_a(p), c),
            ("extended_eval", lambda g, order: extended_eval(g, GENERIC, order), c, c)]
    runs += [(f"T_i/{k}", T_i, alt_i(p, k), alt_i(p, k)) for k in (0, 1)]
    out = []
    for name, T, g, h in runs:
        order = frontier_order(h) if ordered else None
        out.append((name, lambda T=T, g=g, order=order: T(g, order)))
    return out


@pytest.mark.parametrize("name", sorted(graphs()))
def test_sweep_matches_the_depth_first_walk(name, monkeypatch):
    p = graphs()[name]
    mg = plane_multigraph(p)
    assert tutte_poly(mg, max_edges=len(mg.edges)) == dfs_tutte_poly(mg)
    runs = recursions(p, True)
    if len(mg.edges) <= 12:
        runs += recursions(p, False)
    new = [(n, run()) for n, run in runs]
    monkeypatch.setattr(invariants, "_recurse", dfs_recurse)
    assert new == [(n, run()) for n, run in runs]
