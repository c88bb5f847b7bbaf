"""The numbered core against a dict-based reference copy of it.

The reference keeps σ_ω and σ_ω² as label dicts, as the library did before
its permutations were numbered: σ₁ comes from the triple identity, a
reduction rewires the dicts, and a canonical code numbers the edges by
repr and tries every root of a component without pruning.  Over every map
with 1–6 edges, under integer, shuffled-string and tuple labels, the
library must agree with it.
"""

import random
from collections import namedtuple

import pytest

from altdimaps import (AltDimap, Perm, canonical_code, map_stats, reduce_map,
                       reflect, trial)
from altdimaps.catalog import (free_loops, loop_star_1, loop_star_omega,
                               loop_star_omega2, posies)
from altdimaps.core import ALL_MU

from conftest import disjoint_union, maps_up_to

MAPS = maps_up_to(6, n_min=1)


# -- the reference ---------------------------------------------------------------

def inverse(p):
    return {y: x for x, y in p.items()}


class Ref:
    """A map as the two dicts (σ_ω, σ_ω²)."""

    def __init__(self, sw, sw2):
        self.sw, self.sw2 = dict(sw), dict(sw2)

    @property
    def s1(self):
        swi, sw2i = inverse(self.sw), inverse(self.sw2)
        return {e: sw2i[swi[e]] for e in self.sw}

    def key(self):
        return frozenset(self.sw.items()), frozenset(self.sw2.items())


def ref_spliced(p, x):
    """p with x removed: its predecessor maps to its image."""
    p = dict(p)
    y = p.pop(x)
    if y != x:
        p[inverse(p)[x]] = y
    return p


def ref_reduce(r, e, mu):
    sw, sw2, s1 = r.sw, r.sw2, r.s1
    if s1[e] == e or sw[e] == e or sw2[e] == e:
        return Ref(ref_spliced(sw, e), ref_spliced(sw2, e))
    swi, sw2i, s1i = inverse(sw), inverse(sw2), inverse(s1)
    swm, sw2m = dict(sw), dict(sw2)
    if mu == 0:
        swm[swi[e]] = sw[e]
        sw2m[sw2i[e]] = sw2[e]
    elif mu == 1:
        swm[swi[e]] = sw[e]
        sw2m[sw2i[e]] = swi[e]
        sw2m[s1[e]] = sw2[e]
    else:
        sw2m[sw2i[e]] = sw2[e]
        swm[swi[e]] = s1i[e]
        swm[sw2[e]] = sw[e]
    del swm[e], sw2m[e]
    return Ref(swm, sw2m)


def ref_trial(r):
    return Ref(r.s1, r.sw)


def ref_reflect(r):
    return Ref(inverse(r.sw2), inverse(r.sw))


def ref_components(r):
    swi, sw2i = inverse(r.sw), inverse(r.sw2)
    seen, comps = set(), set()
    for e0 in r.sw:
        if e0 in seen:
            continue
        comp, stack = set(), [e0]
        while stack:
            e = stack.pop()
            if e not in comp:
                comp.add(e)
                stack += [r.sw[e], swi[e], r.sw2[e], sw2i[e]]
        seen |= comp
        comps.add(frozenset(comp))
    return comps


def n_cycles(p):
    seen, count = set(), 0
    for x in p:
        if x not in seen:
            count += 1
            while x not in seen:
                seen.add(x)
                x = p[x]
    return count


def ref_stats(r):
    v, af, cf = n_cycles(r.s1), n_cycles(r.sw), n_cycles(r.sw2)
    k = len(ref_components(r))
    return (len(r.sw), v, af, cf, k, k - (v - len(r.sw) + af + cf) // 2)


def ref_code(r):
    """The canonical code with edges numbered by repr and no pruning."""
    order = sorted(r.sw, key=repr)
    pos = {e: i for i, e in enumerate(order)}
    sw = [pos[r.sw[e]] for e in order]
    sw2 = [pos[r.sw2[e]] for e in order]
    swi, sw2i = [0] * len(sw), [0] * len(sw)
    for i in range(len(sw)):
        swi[sw[i]], sw2i[sw2[i]] = i, i
    codes = []
    for comp in ref_components(r):
        best = None
        for root in (pos[e] for e in comp):
            seq, at = [root], {root: 0}
            for x in seq:
                for gen in (sw, swi, sw2, sw2i):
                    if gen[x] not in at:
                        at[gen[x]] = len(seq)
                        seq.append(gen[x])
            code = bytes([len(comp)]) + bytes(at[sw[x]] for x in seq) \
                + bytes(at[sw2[x]] for x in seq)
            best = code if best is None or code < best else best
        codes.append(best)
    return b"".join(sorted(codes))


# -- labellings ------------------------------------------------------------------

def labelled(kind, rng):
    """(library map, reference map) pairs built from the same dicts, the
    edges named so that repr order differs from the integer order."""
    out = []
    for g in MAPS:
        n = g.n_edges
        if kind == "ints":
            names = list(range(n))
        elif kind == "strings":
            names = [f"n{k}" for k in rng.sample(range(100), n)]
        else:
            names = [("t", k) for k in rng.sample(range(20), n)]
        name = dict(zip(range(n), names))
        sw = {name[e]: name[g.sw(e)] for e in range(n)}
        sw2 = {name[e]: name[g.sw2(e)] for e in range(n)}
        out.append((AltDimap(Perm(sw), Perm(sw2)), Ref(sw, sw2)))
    return out


@pytest.fixture(scope="module", params=["ints", "strings", "tuples"])
def pairs(request):
    return labelled(request.param, random.Random(6))


def same(g, r):
    return g.sw.mapping() == r.sw and g.sw2.mapping() == r.sw2


def test_map_count():
    assert len(MAPS) == 1121


def test_derived_maps_and_stats(pairs):
    for g, r in pairs:
        assert same(g, r) and g.s1.mapping() == r.s1
        assert same(trial(g), ref_trial(r))
        assert same(reflect(g), ref_reflect(r))
        st = map_stats(g)
        assert (st.n_edges, st.n_vertices, st.n_a_faces, st.n_c_faces,
                st.n_components, st.genus) == ref_stats(r)
        assert set(g.components()) == ref_components(r)


def test_canonical_code_matches_unpruned_reference(pairs):
    for g, r in pairs:
        assert canonical_code(g) == ref_code(r)


def test_canonical_code_matches_the_reference_where_roots_tie():
    # many roots attain the least code: disjoint loops, loop stars, posies
    # and unions of isomorphic components, some σ_ω fixing edges and some
    # not
    small = [g for g in maps_up_to(3, n_min=1) if len(g.orbits()) == 1]
    maps = [free_loops(k) for k in range(1, 9)]
    maps += [star(6) for star in (loop_star_1, loop_star_omega,
                                  loop_star_omega2)]
    maps += posies(3)
    maps += [disjoint_union(g, g, g) for g in small]
    maps += [disjoint_union(g, h, g, h) for g, h in zip(small, small[1:])]
    maps += [trial(g) for g in maps]
    for g in maps:
        assert canonical_code(g) == ref_code(Ref(g.sw.mapping(),
                                                 g.sw2.mapping()))


def test_reductions_equality_and_hash(pairs):
    for g, r in pairs:
        minors, refs = [], []
        for e in g.edges:
            for mu in ALL_MU:
                minors.append(reduce_map(g, e, mu))
                refs.append(ref_reduce(r, e, mu))
                assert same(minors[-1], refs[-1])
                # the kernel writes σ₁ as well
                assert minors[-1].s1.mapping() == refs[-1].s1
        # equal minors hash alike and stand for equal reference maps
        classes = {}
        for m, ref in zip(minors, refs):
            classes.setdefault(m, set()).add(ref.key())
        assert all(len(keys) == 1 for keys in classes.values())
        assert len(classes) == len({ref.key() for ref in refs})


def test_equality_ignores_construction_order():
    for g, _ in labelled("strings", random.Random(7))[::7]:
        sw, sw2 = g.sw.mapping(), g.sw2.mapping()
        h = AltDimap(Perm(dict(reversed(list(sw.items())))),
                     Perm(dict(reversed(list(sw2.items())))))
        assert h == g and hash(h) == hash(g)


def test_frozenset_labels_in_two_insertion_orders():
    # {8, 16} collide in a small set table, so their repr follows the
    # insertion order; frozenset({2, 3}) sorts between the two reprs
    a1, a2, b = frozenset([8, 16]), frozenset([16, 8]), frozenset([2, 3])
    assert repr(a1) != repr(a2) and sorted(map(repr, (a1, a2, b)))[1] == repr(b)
    c = frozenset(["c"])
    maps = [AltDimap(Perm({a: b, b: c, c: a}), Perm({a: a, b: c, c: b}))
            for a in (a1, a2)]
    assert maps[0] == maps[1] and hash(maps[0]) == hash(maps[1])
    assert canonical_code(maps[0]) == canonical_code(maps[1])
    assert reduce_map(maps[0], a1, 1) == reduce_map(maps[1], a2, 1)


def test_named_tuple_frozenset_labels_in_two_insertion_orders():
    Pair = namedtuple("Pair", "members tag")
    a1, a2 = Pair(frozenset([8, 16]), 0), Pair(frozenset([16, 8]), 0)
    b = Pair(frozenset([2, 3]), 0)
    assert repr(a1) != repr(a2) and sorted(map(repr, (a1, a2, b)))[1] == repr(b)
    maps = [AltDimap(Perm({a: b, b: a}), Perm({a: a, b: b})) for a in (a1, a2)]
    assert maps[0] == maps[1] and hash(maps[0]) == hash(maps[1])


class Alike:
    """Distinct labels that all print the same."""

    def __repr__(self):
        return "Alike()"


class Holder:
    """A label that prints the frozenset it holds."""

    def __init__(self, members):
        self.members = frozenset(members)

    def __eq__(self, other):
        return isinstance(other, Holder) and self.members == other.members

    def __hash__(self):
        return hash(self.members)

    def __repr__(self):
        return f"Holder({self.members!r})"


def test_labels_without_a_canonical_order_are_rejected():
    x, y = Alike(), Alike()
    with pytest.raises(ValueError, match="print alike"):
        Perm({x: y, y: x})
    h = Holder([8, 16])
    with pytest.raises(ValueError, match="no canonical order"):
        Perm({h: h})
