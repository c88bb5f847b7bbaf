"""Enumeration, canonical codes and the named small-map families."""

import hashlib
import random
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from altdimaps import (AltDimap, Perm, canonical_code, enumerate_maps,
                       isomorphic, map_from_rotations, map_stats, trial)
from altdimaps.catalog import (_coded_maps, _partitions, _perm_of_cycle_type,
                               add_omega_loop, add_omega2_loop, free_loops,
                               loop_star_1, loop_star_omega,
                               loop_star_omega2, posies, posy, tricircuit,
                               ultraloop)
from altdimaps.minors import is_posy, is_tricircuit
from altdimaps.textio import serialize_map

from conftest import (digon_with_omega2_loop, disjoint_union, labelings,
                      maps_up_to, witness_a)


# -- enumeration --------------------------------------------------------------

def test_census_counts():
    assert len(enumerate_maps(1)) == 1
    assert len(enumerate_maps(2)) == 4
    assert len(enumerate_maps(3)) == 11


def test_two_edge_self_trial_count():
    sts = [g for g in enumerate_maps(2) if isomorphic(g, trial(g))]
    assert len(sts) == 1
    assert isomorphic(sts[0], free_loops(2))


def test_enumeration_rejects_a_negative_count():
    with pytest.raises(ValueError, match="-1"):
        enumerate_maps(-1)


def test_enumeration_is_isomorph_free():
    ms = enumerate_maps(3)
    codes = {canonical_code(g) for g in ms}
    assert len(codes) == len(ms)


# -- canonical codes ----------------------------------------------------------

@given(st.permutations(range(4)), st.permutations(range(4)),
       st.permutations(range(4)))
def test_canonical_code_relabel_invariant(p1, p2, relab):
    g = AltDimap(Perm(dict(enumerate(p1))), Perm(dict(enumerate(p2))))
    r = dict(enumerate(relab))
    h = AltDimap(Perm({r[i]: r[p1[i]] for i in range(4)}),
                 Perm({r[i]: r[p2[i]] for i in range(4)}))
    assert canonical_code(g) == canonical_code(h)
    assert isomorphic(g, h)


def test_canonical_code_separates():
    assert canonical_code(loop_star_1(2)) != canonical_code(loop_star_omega(2))


def test_canonical_code_size_limit_is_per_component():
    # 3000 one-edge components are fine; one component of 256 edges is not
    assert canonical_code(free_loops(3000)) == bytes([1, 0, 0]) * 3000
    with pytest.raises(ValueError):
        canonical_code(loop_star_omega(256))


def test_identical_components_labelled_apart_get_one_code():
    # two copies of L_{3,1} and of a posy, their edges numbered in blocks
    # in a, interleaved and each rotated differently in b
    for h in (loop_star_1(3), posy(1)):
        n = h.n_edges
        a = disjoint_union(h, h)
        rename = {(i, e): 2 * ((e + i) % n) + i for i in (0, 1) for e in h.edges}
        b = AltDimap(Perm({rename[e]: rename[a.sw(e)] for e in a.edges}),
                     Perm({rename[e]: rename[a.sw2(e)] for e in a.edges}))
        assert canonical_code(a) == canonical_code(b) == canonical_code(h) * 2


def enumeration_candidates(n):
    """Every (σ_ω, σ_ω²) pair that enumerate_maps(n) codes, in its order."""
    for parts in _partitions(n):
        sw = Perm(dict(enumerate(_perm_of_cycle_type(parts))))
        for sw2 in permutations(range(n)):
            yield AltDimap(sw, Perm(dict(enumerate(sw2))))


def codes_digest(maps):
    h = hashlib.sha256()
    for g in maps:
        h.update(canonical_code(g).hex().encode() + b"\n")
    return h.hexdigest()


# recorded from the walk that tried every root of a component; the
# labelled maps are those of test_map_documents.test_writers_digest
CANDIDATE_CODES_DIGEST = \
    "455dc1926d4ada50582b0db70b4384b501c9977d69962444244007019aacaa43"
LABELLED_CODES_DIGEST = \
    "3564d337911afc7d367a6b41b9737a191dad0bcc9558f18833343390e7d95e8b"


def test_codes_digest(six_edge_maps):
    candidates = [g for n in range(1, 6) for g in enumeration_candidates(n)]
    assert len(candidates) == 983
    assert codes_digest(candidates) == CANDIDATE_CODES_DIGEST
    rng = random.Random(19)
    labelled = [m for g in maps_up_to(5) + six_edge_maps
                for m in labelings(g, rng)]
    assert len(labelled) == 3 * 1122
    assert codes_digest(labelled) == LABELLED_CODES_DIGEST



# recorded when every candidate was built as a map and coded by
# canonical_code: the codes, their order and the labelled representatives
# of the census, then the labelled posies
REPRESENTATIVES_DIGEST = \
    "56d99c9d63f9ab80dbc25266a65645aaec6262527d673002653ebadac553992e"


def test_representatives_digest():
    h = hashlib.sha256()
    for n in range(7):
        for code, rep in _coded_maps(n):
            h.update((code.hex() + "\n" + serialize_map(rep)).encode())
    for k in range(4):
        for p in posies(k):
            h.update(serialize_map(p).encode())
    assert h.hexdigest() == REPRESENTATIVES_DIGEST

# -- named families -----------------------------------------------------------

def test_posy_counts_by_genus():
    assert len(posies(0)) == 1
    assert len(posies(1)) == 1
    assert len(posies(2)) == 3


def test_posy_shape():
    for k in (1, 2):
        st_ = map_stats(posy(k))
        assert (st_.n_vertices, st_.n_edges, st_.n_a_faces, st_.n_c_faces,
                st_.genus) == (1, 2 * k + 1, 1, 1, k)


def test_loop_stars():
    for k in (2, 3, 4):
        assert map_stats(loop_star_1(k)).n_vertices == k
        assert map_stats(loop_star_omega(k)).n_a_faces == k
        assert map_stats(loop_star_omega2(k)).n_c_faces == k


def test_ultraloop_self_trial():
    assert trial(ultraloop()) == ultraloop()


def test_tricircuit_grid_recognized():
    for p in range(4):
        for q in range(3):
            for r in range(3):
                if p == 0 and q and r:
                    continue
                g = tricircuit(p, q, r)
                if g.edges:
                    assert is_tricircuit(g), (p, q, r)


def rotation_tricircuit(p, q, r):
    """The tricircuit with p >= 1, built from its rotation system as the
    library built it before: reading clockwise at the glue vertex x, the
    incoming circuit edge, then the ω²-loops (each out dart immediately
    before its in dart), then the outgoing circuit edge, then the ω-loops
    (each in dart immediately before its out dart)."""
    x_rot = [(p - 1, "in")]
    for j in range(r):
        x_rot += [(("c", j), "out"), (("c", j), "in")]
    x_rot.append((0, "out"))
    for i in range(q):
        x_rot += [(("w", i), "in"), (("w", i), "out")]
    rotations = {"x": x_rot}
    for i in range(p - 1):
        rotations[("v", i)] = [(i, "in"), (i + 1, "out")]
    return map_from_rotations(rotations)


def test_tricircuit_equals_the_rotation_build():
    for p in range(1, 7):
        for q in range(6):
            for r in range(6):
                g, want = tricircuit(p, q, r), rotation_tricircuit(p, q, r)
                assert g == want, (p, q, r)


def test_tricircuit_rejects_negative():
    with pytest.raises(ValueError):
        tricircuit(-1, 0, 0)


def test_families_reject_negative_sizes():
    with pytest.raises(ValueError, match="-2"):
        free_loops(-2)
    for family in (posies, posy):
        with pytest.raises(ValueError, match="-1"):
            family(-1)


def closing(x, y):
    """The z with z(x(y(e))) = e: the permutation that closes a triple."""
    return Perm({x(y(e)): e for e in x})


def edited_loop(g, anchor, label, mu):
    """The loop attachment as the library first built it: label goes into
    the in-star right after anchor, is fixed by σ_ω (mu = 1) or σ_ω²
    (mu = 2), and the other face permutation closes the triple."""
    s1m = g.s1.mapping()
    s1m[label], s1m[anchor] = s1m[anchor], label
    loopm = (g.sw if mu == 1 else g.sw2).mapping()
    loopm[label] = label
    s1, loop = Perm(s1m), Perm(loopm)
    if mu == 1:
        return AltDimap(loop, closing(s1, loop))
    return AltDimap(closing(loop, s1), loop)


def test_loop_attachment_equals_the_edited_in_star():
    cases = 0
    for g in maps_up_to(6):
        for anchor in g.edges:
            for mu, add in ((1, add_omega_loop), (2, add_omega2_loop)):
                want = edited_loop(g, anchor, "new", mu)
                assert add(g, anchor, "new") == want, (g, anchor, mu)
                cases += 1
    assert cases == 12850


def test_loop_attachment_rejects_an_unknown_anchor():
    for add in (add_omega_loop, add_omega2_loop):
        with pytest.raises(ValueError, match="edge 'nope' not in map"):
            add(posy(1), "nope", "new")


def test_witness_a_has_both_loop_types():
    g = witness_a()
    assert any(g.sw(e) == e and g.s1(e) != e for e in g.edges)
    assert any(g.sw2(e) == e and g.s1(e) != e for e in g.edges)


def test_digon_with_omega2_loop_is_tricircuit_2_0_1():
    assert isomorphic(digon_with_omega2_loop(), tricircuit(2, 0, 1))
