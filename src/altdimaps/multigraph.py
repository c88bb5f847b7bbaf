"""Plain undirected multigraphs (no embedding) and their Tutte polynomial."""

from __future__ import annotations

from heapq import heappop, heappush
from typing import (Any, Callable, Dict, Hashable, Iterable, List, Optional,
                    Sequence, Tuple)

from .poly import Poly2


class Multigraph:
    """Undirected multigraph: explicit vertices, edges as (id, u, v)."""

    def __init__(self, vertices: Iterable[Hashable],
                 edges: Iterable[Tuple[Hashable, Hashable, Hashable]]):
        self.vertices = frozenset(vertices)
        self.edges = tuple(edges)
        ids = [eid for eid, _, _ in self.edges]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate edge ids")
        for _, u, v in self.edges:
            if u not in self.vertices or v not in self.vertices:
                raise ValueError("edge endpoint not a vertex")

    def degree(self, v: Hashable) -> int:
        return sum((u == v) + (w == v) for _, u, w in self.edges)


def frontier(keys: Sequence[Sequence[Hashable]]) -> List[int]:
    """A greedy order of the items 0..n-1, item i touching the keys
    keys[i]: taking an item meets all its keys, and next comes the item
    with the most keys already met.  Ties go to the item whose first key
    was met earliest, then to the lowest number, so the taken part grows
    breadth first: on a long grid it sweeps across the width, not along
    the length."""
    touching: Dict[Hashable, List[int]] = {}
    for i, ks in enumerate(keys):
        for k in set(ks):
            touching.setdefault(k, []).append(i)
    score: List = [0] * len(keys)  # None once taken
    first = [0] * len(keys)  # when the item's first key was met
    heap = [(0, 0, i) for i in range(len(keys))]
    met, order = set(), []
    while heap:
        s, _, i = heappop(heap)
        if score[i] is None or -s != score[i]:  # taken, or a stale entry
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


def sweep(root: Any, key: Callable[[Any], Hashable],
          step: Callable[[Any], Optional[List[Tuple[Any, Any]]]],
          one: Any, zero: Any) -> Any:
    """The value of the state root under a linear recursion.  step(state)
    returns None for a leaf, which is worth one, and otherwise the list of
    (coefficient, substate) pairs whose coefficient × value sum to the
    state's value; a coefficient None takes the substate's value as it is.
    No leaf reached means the value zero.

    This is the top-down frontier method of Sekine, Imai and Tani (ISAAC
    1995).  The states are swept level by level, the substates of level i
    making level i + 1, and each carries the sum, over its paths from the
    root, of the products of their coefficients.  States of a level with
    equal key(state) are merged by adding these sums, so the key must fix
    the state's value.  A level is emptied as it is expanded, so at most
    two are held at once.  A state is expanded even when its sum is 0, so
    an error its expansion raises is still met."""
    level: Dict[Hashable, List[Any]] = {key(root): [root, one]}
    value = None
    while level:
        below: Dict[Hashable, List[Any]] = {}
        while level:
            state, acc = level.popitem()[1]
            terms = step(state)
            if terms is None:
                value = acc if value is None else value + acc
                continue
            for coeff, sub in terms:
                term = acc if coeff is None else coeff * acc
                k = key(sub)
                met = below.get(k)
                if met is None:
                    below[k] = [sub, term]
                else:  # keep the state met first, so the new one dies young
                    met[1] = met[1] + term
        level = below
    return zero if value is None else value


def _renumber(s: Sequence[int], old: int = -1, new: int = -1) -> Tuple[int, ...]:
    """s with old read as new, the vertices renumbered by first appearance."""
    ids: Dict[int, int] = {}
    return tuple(ids.setdefault(new if w == old else w, len(ids)) for w in s)


def _joined(s: Sequence[int], u: int, v: int) -> bool:
    """Whether the edges (s[0], s[1]), (s[2], s[3]), … join u to v, all
    numbered below len(s) + 2."""
    root = list(range(len(s) + 2))

    def find(a: int) -> int:
        while root[a] != a:
            root[a] = a = root[root[a]]
        return a

    for a, b in zip(s[::2], s[1::2]):
        root[find(a)] = find(b)
    return find(u) == find(v)


def tutte_poly(g: Multigraph, max_edges: int = 12) -> Poly2:
    """Tutte polynomial by deletion/contraction: a loop is worth y times
    the rest, a bridge x times its contraction, and any other edge the sum
    of its deletion and its contraction.

    The recursion is swept level by level (multigraph.sweep), the state
    being the endpoints of the surviving edges, flattened to (u0, v0, u1,
    v1, …) with the vertices renumbered by first appearance.  The tuple
    fixes the remaining multigraph up to its vertices without edges, which
    do not change the polynomial, so states with equal tuples are merged
    exactly.  The edge order is free: T(G) is its subset expansion, which
    names no order.  So the edges go in the frontier order of their
    endpoints (the edge with the most endpoints met so far next; ties as
    in frontier, the edge ids numbered in repr order): the reduced edges
    then meet the rest in few vertices, and the states that differ only
    in how the reduced part was cut coincide."""
    if len(g.edges) > max_edges:
        raise ValueError(f"Tutte recursion capped at {max_edges} edges")
    ends = [e[1:] for e in sorted(g.edges, key=lambda e: repr(e[0]))]
    x, y = Poly2.var(0), Poly2.var(1)

    def step(s: Tuple[int, ...]):
        if not s:
            return None
        u, v, rest = s[0], s[1], s[2:]
        if u == v:
            return [(y, _renumber(rest))]
        if not _joined(rest, u, v):
            return [(x, _renumber(rest, v, u))]
        return [(None, _renumber(rest)), (None, _renumber(rest, v, u))]

    root = _renumber([w for i in frontier(ends) for w in ends[i]])
    return sweep(root, lambda s: s, step, Poly2.one(), Poly2.zero())
