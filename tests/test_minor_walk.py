"""The minor-closure walk against copies of the walks it replaced.

The closure reference gives every child a canonical code and reduces a
triloop by all three types; the library walk skips labelled minors it has
already met and reduces a triloop once.  Both must yield the same
representatives in the same order, so the genus witness is the same too.
The walk reference makes every child a map with reduce_map, where the
library walk keeps image triples and builds a map only for a minor it has
not met; the two must yield the same (key, map) pairs in the same order at
every floor.  The genus-k witness search must also key no minor too small
to be a witness, and the candidate-pair 2-commutativity test must agree
with a copy of the all-pairs loop it replaced.
"""

import random

import pytest

import altdimaps.catalog
from altdimaps import (AltDimap, InvariantError, Perm, canonical_code,
                       is_2_reduction_commutative, is_posy_union,
                       is_totally_reduction_commutative, minor_closure,
                       predict_commute, reduce_map)
from altdimaps.catalog import free_loops, posy, tricircuit, ultraloop
from altdimaps.core import ALL_MU, MU1
from altdimaps.minors import _minors, excluded_minor_witness

from conftest import (digon_with_omega2_loop, disjoint_union, maps_up_to,
                      witness_a)

MAPS = maps_up_to(5)


def full_closure(g):
    """The closure walk as it was: canonical code first, then the check."""
    seen, out = set(), {}
    stack = [g]
    while stack:
        m = stack.pop()
        k = canonical_code(m)
        if k in seen:
            continue
        seen.add(k)
        out[k] = m
        for e in sorted(m.edges, key=repr):
            for mu in ALL_MU:
                stack.append(reduce_map(m, e, mu))
    return out


def altdimap_walk(g, key, floor=0):
    """_minors as it was before it walked image triples: every child is a
    map made by reduce_map, and a labelled minor met before is skipped as
    a map when it is popped."""
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


KEYS = {"identity": lambda m: m, "code": canonical_code}


def walks_alike(g, key, floor=0):
    """Whether the library walk yields the reference walk's (key, map)
    pairs in its order; map equality compares the labels as well."""
    return list(_minors(g, key, floor)) == list(altdimap_walk(g, key, floor))


def string_named(g, rng):
    """g with its edges renamed to shuffled strings, so that sorting by
    repr orders them differently from the integer labels."""
    names = dict(zip(sorted(g.edges),
                     (f"n{i}" for i in rng.sample(range(100), g.n_edges))))
    return AltDimap(Perm({names[e]: names[g.sw(e)] for e in g.edges}),
                    Perm({names[e]: names[g.sw2(e)] for e in g.edges}))


def labellings():
    rng = random.Random(5)
    return {"ints": MAPS, "strings": [string_named(g, rng) for g in MAPS]}


@pytest.fixture(scope="module", params=["ints", "strings"])
def labelled_maps(request):
    return labellings()[request.param]


def test_map_count():
    assert len(MAPS) == 221


def test_closure_and_witness_match_the_full_walk(labelled_maps, monkeypatch):
    calls = []

    def counted(m):
        calls.append(m)
        return canonical_code(m)

    monkeypatch.setattr(altdimaps.catalog, "canonical_code", counted)
    for g in labelled_maps:
        ref = full_closure(g)
        calls.clear()
        assert list(minor_closure(g).items()) == list(ref.items())
        # at most one canonical code per distinct labelled minor
        assert len(calls) == len(set(calls))
        for k in (1, 2):
            first = next((m for m in ref.values()
                          if m.edges and is_posy_union(m) == k), None)
            calls.clear()
            assert excluded_minor_witness(g, k) == first
            assert len(calls) == len(set(calls))


@pytest.mark.parametrize("key", KEYS)
def test_triple_walk_matches_the_altdimap_walk(labelled_maps, key):
    for g in labelled_maps:
        for floor in (0, 3, 5):
            assert walks_alike(g, KEYS[key], floor)


@pytest.mark.parametrize("key", KEYS)
def test_triple_walk_matches_on_six_edges(six_edge_maps, key):
    assert all(walks_alike(g, KEYS[key], 5) for g in six_edge_maps)


def test_a_live_ultraloop_is_no_reduced_number():
    """A reduced number and a live ultraloop are both fixed by all three
    images; the walk tells them apart by its live mask, so every subset
    of k free loops is a labelled minor of its own."""
    for k in range(1, 5):
        g = free_loops(k)
        assert len(list(_minors(g, KEYS["identity"]))) == 2 ** k
        assert walks_alike(g, KEYS["identity"])
    for other in (posy(1), tricircuit(1, 1, 1)):
        g = disjoint_union(ultraloop(), other)
        for key in KEYS.values():
            assert walks_alike(g, key)


def test_walk_raises_when_the_triple_does_not_close():
    g = posy(1)
    bad = AltDimap._of(Perm({e: e for e in g.edges}), g.sw, g.sw2)
    for walk in (_minors, altdimap_walk):
        with pytest.raises(InvariantError, match="does not close around it"):
            list(walk(bad, KEYS["identity"]))


def test_totally_commutative_count(labelled_maps):
    assert sum(is_totally_reduction_commutative(g)
               for g in labelled_maps if g.edges) == 80


def test_witness_search_keys_nothing_below_its_floor(labelled_maps,
                                                     monkeypatch):
    """A posy union of total genus k has at least 2k + 1 edges, so the
    genus-k witness search keys no smaller minor."""
    keyed = []

    def counted(m):
        keyed.append(m.n_edges)
        return canonical_code(m)

    monkeypatch.setattr(altdimaps.catalog, "canonical_code", counted)
    for g in labelled_maps:
        for k in (1, 2):
            keyed.clear()
            excluded_minor_witness(g, k)
            assert all(n >= 2 * k + 1 for n in keyed)


def all_pairs_2_commutative(g):
    """is_2_reduction_commutative as it was: predict_commute on every pair
    of distinct edges and every pair of reduction types."""
    edges = sorted(g.edges, key=repr)
    return all(predict_commute(g, e, mu, f, nu)
               for i, e in enumerate(edges) for f in edges[i + 1:]
               for mu in ALL_MU for nu in ALL_MU)


def test_candidate_pairs_match_all_pairs(six_edge_maps):
    rng = random.Random(8)
    maps = MAPS + six_edge_maps
    named = [witness_a(), digon_with_omega2_loop(), tricircuit(2, 3, 1)]
    for g in maps + [string_named(g, rng) for g in maps] + named:
        assert is_2_reduction_commutative(g) == all_pairs_2_commutative(g)
