"""The minor-closure walk against copies of the walks it replaced.

The closure reference gives every child a canonical code and reduces a
triloop by all three types; the library walk skips labelled minors it has
already met and reduces a triloop once.  Both must yield the same
representatives in the same order, so the genus witness is the same too.
The walk reference (conftest.altdimap_walk) makes every child a map with
reduce_map, where the library walk keeps image triples, keys them by
live_code and makes a map only where one leaves the library; the two must
yield the same (key, map) pairs in the same order at every floor.  The
readers of a triple (its code and its posy-union genus) must agree with
the same readers of the map it makes, on every minor the closure walk
keys.  The genus-k witness search must key no minor at or below its
floor and find the witness a walk that codes every minor finds, total
commutativity must stop at two edges with the answer of the walk to the
empty map, and the candidate-pair 2-commutativity test must agree with a
copy of the all-pairs loop it replaced.
"""

import random

import pytest

import altdimaps.minors
from altdimaps import (AltDimap, InvariantError, Perm, canonical_code,
                       is_2_reduction_commutative, is_posy_union,
                       is_totally_reduction_commutative, map_stats,
                       minor_closure, predict_commute, reduce_map)
from altdimaps.catalog import (free_loops, live_code, posy, tricircuit,
                               ultraloop)
from altdimaps.core import ALL_MU
from altdimaps.minors import (_2_commutative, _live_part, _minors,
                              _posy_union_genus, excluded_minor_witness)

from conftest import (altdimap_walk, digon_with_omega2_loop, disjoint_union,
                      maps_up_to, witness_a)

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


# key name -> (the library walk's key on triples, the reference's on maps);
# the library's labelled walk has no key, and the reference keys by the map
KEYS = {"identity": (None, lambda m: m), "code": (live_code, canonical_code)}


def library_walk(g, key, floor=0):
    """_minors with each yielded minor made a map: (key, map) pairs, keyed
    by the map itself when key is None."""
    for k, t, live in _minors(g, key, floor):
        m = _live_part(g, t, live)
        yield (m if key is None else k), m


def walks_alike(g, name, floor=0):
    """Whether the library walk yields the reference walk's (key, map)
    pairs in its order; map equality compares the labels as well."""
    lib, ref = KEYS[name]
    return list(library_walk(g, lib, floor)) == list(altdimap_walk(g, ref, floor))


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


def counted_codes(monkeypatch):
    """The (t, live) of every minor the closure walk codes, from now on
    until the test ends."""
    calls = []

    def counted(t, live):
        calls.append((t, live))
        return live_code(t, live)

    monkeypatch.setattr(altdimaps.minors, "live_code", counted)
    return calls


def test_closure_and_witness_match_the_full_walk(labelled_maps, monkeypatch):
    calls = counted_codes(monkeypatch)
    for g in labelled_maps:
        ref = full_closure(g)
        calls.clear()
        assert list(minor_closure(g).items()) == list(ref.items())
        # at most one canonical code per distinct labelled minor
        assert len(ref) <= len(calls) == len(set(calls))
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
            assert walks_alike(g, key, floor)


@pytest.mark.parametrize("key", KEYS)
def test_triple_walk_matches_on_six_edges(six_edge_maps, key):
    assert all(walks_alike(g, key, 5) for g in six_edge_maps)


def posy_union_by_map_stats(m):
    """is_posy_union as it read map_stats before it read the triple."""
    st = map_stats(m)
    if st.n_vertices == st.n_a_faces == st.n_c_faces == st.n_components:
        return st.genus
    return None


@pytest.mark.parametrize("labels", ["ints", "strings"])
def test_triple_readers_match_the_built_map(six_edge_maps, labels,
                                            monkeypatch):
    """On every minor the closure walk codes, in every map with at most
    six edges, the code and the posy-union genus read off the triple are
    those of the map it makes.  Both readers ignore labels, so a triple
    met again (in another map) is checked once."""
    rng = random.Random(7)
    maps = MAPS + six_edge_maps
    if labels == "strings":
        maps = [string_named(g, rng) for g in maps]
    calls = counted_codes(monkeypatch)
    checked = set()
    for g in maps:
        calls.clear()
        minor_closure(g)
        for t, live in calls:
            if (t, live) in checked:
                continue
            checked.add((t, live))
            m = _live_part(g, t, live)
            assert live_code(t, live) == canonical_code(m)
            genus = _posy_union_genus(t, live.bit_count())
            assert genus == is_posy_union(m) == posy_union_by_map_stats(m)
    assert len(checked) > 10_000


def test_a_live_ultraloop_is_no_reduced_number():
    """A reduced number and a live ultraloop are both fixed by all three
    images; the walk tells them apart by its live mask, so every subset
    of k free loops is a labelled minor of its own."""
    for k in range(1, 5):
        g = free_loops(k)
        assert len(list(_minors(g))) == 2 ** k
        assert walks_alike(g, "identity")
    for other in (posy(1), tricircuit(1, 1, 1)):
        g = disjoint_union(ultraloop(), other)
        for key in KEYS:
            assert walks_alike(g, key)


def test_walk_raises_when_the_triple_does_not_close():
    g = posy(1)
    # no library path can make a map whose triple does not close, so the
    # derived σ₁ is overwritten here
    bad = AltDimap(g.sw, g.sw2)
    bad._s1 = Perm({e: e for e in g.edges})
    for walk, key in zip((library_walk, altdimap_walk), KEYS["identity"]):
        with pytest.raises(InvariantError, match="does not close around it"):
            list(walk(bad, key))


def test_totally_commutative_count(labelled_maps):
    assert sum(is_totally_reduction_commutative(g)
               for g in labelled_maps if g.edges) == 80


def test_witness_search_keys_nothing_at_or_below_its_floor(labelled_maps,
                                                           monkeypatch):
    """A posy union of total genus k has at least 2k + 1 edges, so the
    genus-k witness search meets no smaller minor, and a minor with 2k + 1
    edges gets no children, so its code would prune nothing: only larger
    minors are keyed."""
    keyed = counted_codes(monkeypatch)
    for g in labelled_maps:
        for k in (1, 2):
            keyed.clear()
            excluded_minor_witness(g, k)
            assert all(live.bit_count() > 2 * k + 1 for _, live in keyed)
            assert keyed or g.n_edges <= 2 * k + 1


def witness_coding_every_minor(g, k):
    """excluded_minor_witness as it was: every minor the walk meets, those
    at its floor of 2k + 1 edges too, keyed by its canonical code."""
    return next((_live_part(g, t, live)
                 for _, t, live in _minors(g, live_code, 2 * k + 1)
                 if _posy_union_genus(t, live.bit_count()) == k), None)


def test_witness_matches_the_walk_that_codes_every_minor(six_edge_maps):
    """The same witness, labels included, as when the floor minors were
    coded: on every map with at most five edges for k = 0..3, and on the
    six-edge maps for k = 1."""
    cases = [(g, k) for g in MAPS for k in range(4)]
    cases += [(g, 1) for g in six_edge_maps]
    for g, k in cases:
        assert excluded_minor_witness(g, k) == witness_coding_every_minor(g, k)


def test_total_commutativity_matches_the_walk_to_the_empty_map(six_edge_maps):
    """Stopping at two edges gives the answer of the walk down to the empty
    map: a minor with at most one edge has no pair to commute."""
    for g in MAPS + six_edge_maps:
        full = all(_2_commutative(t) for _, t, _ in _minors(g))
        assert is_totally_reduction_commutative(g) == full


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
