"""The level sweep against the memoised depth-first walk it replaced.

multigraph.sweep evaluates the map recursions and the Tutte oracle level by
level, merging equal states within a level.  The reference below is the
depth-first walk on an explicit stack that did this before, with the
engine's row generator and the oracle's expansion, unchanged.  Both must
give the same whole polynomials (and rationals) on the plane graphs below:
in frontier order on all of them, and in repr order on those with at most
12 edges.  multigraph.frontier, which gives both the edge order of the
oracle and frontier_order, is checked against the heap it replaced, in
which every item waited from the start.  The states that each default-order
sweep expands are pinned as counts.
"""

from heapq import heappop, heappush
from typing import Any, Callable, Dict, Generator, Hashable, List, Tuple

import pytest
from hypothesis import given, strategies as st

from altdimaps import (T_a, T_c, T_i, alt_a, alt_c, alt_i, extended_eval,
                       frontier_order, invariants, plane_multigraph,
                       reflect, trial_power, tutte_poly)
from altdimaps.core import EdgeClass, _class_code
from altdimaps.minors import _reduce
from altdimaps.multigraph import _joined, _renumber, frontier, sweep
from altdimaps.poly import Poly2

from conftest import grid, plane_suite, theta, triangulated_grid, wheel
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


def dfs_recurse(g, rem, table, terms, one, zero, name):
    """The engine as it was: memo keyed by (depth, σ_ω, σ_ω²), each row
    found by scanning the table's tests."""

    def row(state):
        # yields each reduced state with its depth, receives its value
        s, i = state
        if i == len(rem):
            return one
        e = rem[i]
        c = EdgeClass(_class_code(s, e))
        k = next((k for k, test in enumerate(table) if test(c)), None)
        if k is None:
            raise ValueError(f"edge {g.sw.labels[e]!r} fits no case of the "
                             f"{name} recursion")
        total = None
        for coeff, mu in terms[k]:
            if coeff is not None and not coeff:
                continue
            sub = yield tuple(map(tuple, _reduce(s, e, mu))), i + 1
            term = sub if coeff is None else coeff * sub
            total = term if total is None else total + term
        return zero if total is None else total

    return evaluate((g.triple, 0), lambda st: (st[1], st[0][1], st[0][2]), row)


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
    order if ordered, else in repr order.  The frontier order is the
    image's own, but alt_c's for alt_a (which has alt_c's labels), in
    which T_a meets about 4× fewer states on the triangulated 4×5 grid."""
    c = alt_c(p)
    runs = [("T_c", T_c, c, c), ("T_a", T_a, alt_a(p), c),
            ("extended_eval", lambda g, order: extended_eval(g, GENERIC, order), c, c)]
    runs += [(f"T_i/{k}", T_i, alt_i(p, k), alt_i(p, k)) for k in (0, 1)]
    out = []
    for name, T, g, h in runs:
        order = frontier_order(h) if ordered else list(g.sw.labels)
        out.append((name, lambda T=T, g=g, order=order: T(g, order)))
    return out


@pytest.mark.parametrize("name", sorted(graphs()))
def test_sweep_matches_the_depth_first_walk(name, monkeypatch):
    p = graphs()[name]
    mg = plane_multigraph(p)
    assert tutte_poly(mg) == dfs_tutte_poly(mg)
    runs = recursions(p, True)
    if len(mg.edges) <= 12:
        runs += recursions(p, False)
    new = [(n, run()) for n, run in runs]
    monkeypatch.setattr(invariants, "_recurse", dfs_recurse)
    assert new == [(n, run()) for n, run in runs]


# States expanded (leaves included) by T_c(alt_c(P)), T_a(alt_a(P)) and
# T_i(alt_i(P)) in their default orders, the frontier order of the map each
# sweeps.  A cheaper step must expand the same states.
STATE_COUNTS = {
    "W3": (40,) * 3, "W4": (60,) * 3, "W5": (80,) * 3, "W6": (100,) * 3,
    "theta3": (11,) * 3, "theta4": (15,) * 3, "theta5": (19,) * 3,
    "theta6": (23,) * 3, "theta7": (27,) * 3, "theta8": (31,) * 3,
    "theta9": (35,) * 3,
    "tri4x5": (2_011, 10_554, 6_373),
}


def test_default_orders_expand_the_pinned_states(monkeypatch):
    counts = []

    def counting_sweep(root, key, step, one, zero):
        def counted(state):
            counts[-1] += 1
            return step(state)
        return sweep(root, key, counted, one, zero)

    monkeypatch.setattr(invariants, "sweep", counting_sweep)
    planes = {**{f"W{k}": wheel(k) for k in range(3, 7)},
              **{f"theta{k}": theta(k) for k in range(3, 10)},
              "tri4x5": triangulated_grid(4, 5)}
    for name, p in planes.items():
        found = []
        for T, alt in ((T_c, alt_c), (T_a, alt_a), (T_i, alt_i)):
            counts.append(0)
            T(alt(p))
            found.append(counts[-1])
        assert tuple(found) == STATE_COUNTS[name], name


def reference_frontier(keys):
    """multigraph.frontier as it was: every item on the heap from the
    start with priority (0, 0, i), each item's keys gathered in a set."""
    touching: Dict[Hashable, List[int]] = {}
    for i, ks in enumerate(keys):
        for k in set(ks):
            touching.setdefault(k, []).append(i)
    score: List = [0] * len(keys)  # None once taken
    first = [0] * len(keys)
    heap = [(0, 0, i) for i in range(len(keys))]
    met, order = set(), []
    while heap:
        s, _, i = heappop(heap)
        if score[i] is None or -s != score[i]:
            continue
        order.append(i)
        score[i] = None
        for k in keys[i]:
            if k not in met:
                met.add(k)
                for j in touching[k]:
                    if score[j] is not None:
                        score[j] += 1
                        first[j] = first[j] or len(met)
                        heappush(heap, (-score[j], first[j], j))
    return order


def reference_frontier_order(g):
    """frontier_order as it was: the keys k·n + x of each edge listed
    from the three permutations' preimages, then reference_frontier."""
    perms = (g.s1, g.sw, g.sw2)
    n = g.n_edges
    keys = [[k * n + x for k, p in enumerate(perms) for x in (e, p.pre[e])]
            for e in range(n)]
    return [g.sw.labels[i] for i in reference_frontier(keys)]


def test_frontier_matches_the_reference():
    # every graph of the sweep test: its oracle's endpoint keys, and the
    # trimedial keys of its images and of the maps T_a and T_i sweep
    for name, p in graphs().items():
        ends = [e[1:] for e in plane_multigraph(p).edges]
        assert frontier(ends) == reference_frontier(ends), name
        for g in (alt_c(p), alt_a(p), alt_i(p, 0), alt_i(p, 1)):
            for h in (g, reflect(g), trial_power(reflect(g), 2)):
                assert frontier_order(h) == reference_frontier_order(h), name


@given(st.lists(st.lists(st.integers(0, 7), max_size=4), max_size=12))
def test_frontier_matches_the_reference_on_any_keys(keys):
    # repeated keys, items with no keys, several components
    assert frontier(keys) == reference_frontier(keys)
