"""Core map representation: the permutation triple, trial, stats."""

import re

import pytest
from hypothesis import given, strategies as st

from altdimaps import (AltDimap, EMPTY_MAP, Perm, build_map, classify_edge,
                       map_from_rotations, map_stats, reflect,
                       rotation_system, trial, trial_power)
from altdimaps.binfn import indicator_from_gf2, ultraloop_bf
from altdimaps.core import ALL_MU, MUW, MUW2
from altdimaps.invariants import alt_i
from altdimaps.minors import (commute_check, excluded_minor_witness,
                              genus_excluded_minor_test, predict_commute,
                              reduce_map, reduce_seq)
from altdimaps.multigraph import Multigraph
from altdimaps.perm import _canonical_repr, numbering
from altdimaps.catalog import (enumerate_maps, free_loops, loop_star_1,
                               loop_star_omega, loop_star_omega2, posies,
                               posy, tricircuit, ultraloop)

from conftest import maps_up_to, random_maps, semiloop_pair, wheel


# -- the defining identity ---------------------------------------------------

@given(random_maps())
def test_alternation_identity(g):
    # s1(sw(sw2(e))) = e defines the derived permutation
    for e in g.edges:
        assert g.s1(g.sw(g.sw2(e))) == e


@given(random_maps(), st.data())
def test_lazy_s1(g, data):
    # s1 is derived on first use; reading it never changes == or hash
    e = data.draw(st.sampled_from(sorted(g.edges)))
    mu = data.draw(st.sampled_from(ALL_MU))
    for h in (g, reduce_map(g, e, mu), trial(g)):
        fresh = AltDimap(h.sw, h.sw2)
        assert fresh == h and hash(fresh) == hash(h)
        assert h.s1 == Perm({h.sw(h.sw2(x)): x for x in h.edges})
        assert fresh == h and hash(fresh) == hash(h)
        assert len({h, fresh}) == 1
        assert fresh.s1 == h.s1


def test_empty_map():
    st_ = map_stats(EMPTY_MAP)
    assert st_.n_edges == st_.n_vertices == st_.n_components == 0


def test_build_map_from_cycles():
    g = build_map("abc", [("a", "c", "b")], [("a", "c", "b")])
    assert g.sw("a") == "c" and g.sw2("b") == "a"
    assert map_stats(g).genus == 1  # the 1-posy


def test_build_map_rejects_a_repeated_label():
    with pytest.raises(ValueError, match="edge label 0 repeated"):
        build_map([0, 0], [], [])
    with pytest.raises(ValueError, match="edge label 'b' repeated"):
        build_map("abcb", [("a", "b")], [])


# -- trial -------------------------------------------------------------------

@given(random_maps())
def test_trial_has_order_three(g):
    assert trial(trial(trial(g))) == g
    assert trial_power(g, 3) == g and trial_power(g, 1) == trial(g)


@given(random_maps())
def test_trial_cycles_the_counts(g):
    # vertices -> a-faces -> c-faces -> vertices
    a, b = map_stats(g), map_stats(trial(g))
    assert (b.n_vertices, b.n_a_faces, b.n_c_faces) == \
        (a.n_c_faces, a.n_vertices, a.n_a_faces)
    assert b.genus == a.genus and b.n_components == a.n_components


def test_reflect_is_involution():
    g = posy(1)
    assert reflect(reflect(g)) == g


# -- stats and genus ---------------------------------------------------------

@given(random_maps())
def test_euler_formula(g):
    st_ = map_stats(g)
    assert st_.euler == 2 * (st_.n_components - st_.genus)
    assert st_.genus >= 0


@given(random_maps())
def test_traced_genus_equals_euler_genus(g):
    assert rotation_system(g).genus() == map_stats(g).genus


def test_known_stats():
    assert map_stats(ultraloop()).genus == 0
    assert map_stats(posy(1)).genus == 1
    assert map_stats(posy(2)).genus == 2
    st_ = map_stats(loop_star_1(3))
    assert (st_.n_vertices, st_.n_a_faces, st_.n_c_faces) == (3, 1, 1)


# -- rotation systems --------------------------------------------------------

def test_map_from_rotations_roundtrip():
    for g in maps_up_to(6, n_min=1):
        eg = rotation_system(g)
        # rebuild from the embedded rotations: vertex -> [(edge, dir)]
        rots = {v: [( e, "in" if end == 0 else "out") for (e, end) in rot]
                for v, rot in eg.rotations.items()}
        assert map_from_rotations(rots) == g


# -- classification ----------------------------------------------------------

def test_classify_unknown_edge():
    for g in (ultraloop(), posy(1)):
        with pytest.raises(ValueError):
            classify_edge(g, 99)


def test_classify_ultraloop():
    g = ultraloop()
    c = classify_edge(g, next(iter(g.edges)))
    assert c.is_ultraloop and c.is_1_loop and c.is_omega_loop \
        and c.is_omega2_loop


def test_classify_loop_stars():
    for mu, ctor in ((0, loop_star_1), (1, loop_star_omega),
                     (2, loop_star_omega2)):
        g = ctor(3)
        for e in g.edges:
            c = classify_edge(g, e)
            assert c.is_loop(mu) and not c.is_ultraloop


def test_classify_posy_all_semiloops_no_loops():
    g = posy(1)
    for e in g.edges:
        c = classify_edge(g, e)
        assert not c.is_triloop
        assert c.is_1_semiloop and c.is_omega_semiloop and c.is_omega2_semiloop


def test_local_semiloop_test_matches_global():
    # the ω- and ω²-semiloop bits against k - γ of the whole underlying
    # embedded graph before and after deleting e with its right successor
    # σ_ω²(e) or its left successor σ_ω⁻¹(e)
    cases = 0
    for g in maps_up_to(6, n_min=1):
        for e in g.edges:
            c = classify_edge(g, e)
            for mu, f in ((MUW, g.sw2(e)), (MUW2, g.sw.inv(e))):
                cases += f != e
                assert c.is_semiloop(mu) == semiloop_pair(g, e, f), (g, e, mu)
    assert cases == 10288


@given(random_maps(max_n=12, min_n=7))
def test_semiloop_bits_match_global_definition(g):
    # larger maps than the exhaustive test: the 1-bit is head == tail, the
    # others the rise of k - γ after deleting the pair
    for e in g.edges:
        c = classify_edge(g, e)
        assert c.is_1_semiloop == (g.head(e) == g.tail(e))
        for mu, f in ((MUW, g.sw2(e)), (MUW2, g.sw.inv(e))):
            assert c.is_semiloop(mu) == semiloop_pair(g, e, f)


def test_map_from_rotations_rejects_unknown_dart_kinds():
    for rot in ([("a", "in"), ("a", "sideways")], [("a", "IN"), ("a", "OUT")],
                [("a", "out"), ("b", "in"), ("b", "out"), ("a", "out")]):
        with pytest.raises(ValueError, match="'v'"):
            map_from_rotations({"v": rot})


@pytest.mark.parametrize("rotations, message", [
    ({"v": [("a", "in"), ("a", "out"), ("b", "in")]},
     "odd dart count at vertex 'v'"),
    ({"u": [("a", "in"), ("b", "out")], "v": [("a", "in"), ("b", "out")]},
     "edge 'a' comes in twice"),
    ({"u": [("a", "in"), ("b", "out")], "v": [("b", "in"), ("b", "out")]},
     "edge 'b' goes out twice"),
    ({"v": [("a", "in"), ("b", "out")]},
     "every edge needs one in dart and one out dart"),
], ids=["odd", "in_twice", "out_twice", "unpaired"])
def test_map_from_rotations_rejects_bad_darts(rotations, message):
    with pytest.raises(ValueError, match=message):
        map_from_rotations(rotations)


def test_mismatched_domains_rejected():
    with pytest.raises(ValueError):
        AltDimap(Perm({0: 0}), Perm({1: 1}))


@pytest.mark.parametrize("call, message", [
    (lambda: build_map("ab", [("a", "z")], []), "^cycle point 'z' not in domain$"),
    (lambda: build_map("ab", [("a", "b", "a")], []), "^a cycle point named twice$"),
    (lambda: build_map("abc", [("a", "b"), ("b", "c")], []),
     "^a cycle point named twice$"),
    (lambda: Perm({0: 1, 1: 2}), "^image differs from domain; not a permutation$"),
    (lambda: Perm({0: 1, 1: 1}), "^not injective; not a permutation$"),
    (lambda: Perm({0: 1, 1: 0, 2: 2}).restricted([0, 2]),
     "^restriction does not respect cycles$"),
    (lambda: Multigraph("uv", [(0, "u", "v"), (0, "v", "u")]),
     "^duplicate edge ids$"),
    (lambda: Multigraph("uv", [(0, "u", "w")]), "^edge endpoint not a vertex$"),
    (lambda: loop_star_1(1), "^loop count k must be an int of at least 2, got 1$"),
    (lambda: loop_star_omega(1), "^loop count k must be an int of at least 2, got 1$"),
    (lambda: loop_star_omega2(1), "^loop count k must be an int of at least 2, got 1$"),
    (lambda: posy(1, 5), r"^genus-1 posy variant must be an int in 0\.\.0, got 5$"),
], ids=["build_map_unknown", "build_map_twice", "build_map_two_cycles",
        "perm_image", "perm_injective",
        "restricted_across_a_cycle", "multigraph_id", "multigraph_endpoint",
        "loop_star_1", "loop_star_omega", "loop_star_omega2", "posy_variant"])
def test_constructors_refuse_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


P1 = posy(1)


@pytest.mark.parametrize("name, least, most, call", [
    ("edge count n", 0, None, enumerate_maps),
    ("genus k", 0, None, posies),
    ("genus-1 posy variant", 0, 0, lambda v: posy(1, v)),
    ("loop count k", 0, None, free_loops),
    ("loop count k", 2, None, loop_star_1),
    ("loop count k", 2, None, loop_star_omega),
    ("loop count k", 2, None, loop_star_omega2),
    ("p", 0, None, lambda v: tricircuit(v, 1, 0)),
    ("q", 0, None, lambda v: tricircuit(1, v, 0)),
    ("r", 0, None, lambda v: tricircuit(1, 0, v)),
    ("reduction type mu", 0, 2, lambda v: reduce_map(P1, 0, v)),
    ("reduction type mu", 0, 2, lambda v: reduce_seq(P1, [(1, 0), (0, v)])),
    ("reduction type mu", 0, 2, lambda v: predict_commute(P1, 0, v, 1, 0)),
    ("reduction type nu", 0, 2, lambda v: predict_commute(P1, 0, 0, 1, v)),
    ("reduction type mu", 0, 2, lambda v: commute_check(P1, 0, v, 1, 0)),
    ("reduction type nu", 0, 2, lambda v: commute_check(P1, 0, 0, 1, v)),
    ("genus k", 0, None, lambda v: excluded_minor_witness(P1, v)),
    ("genus k", 0, None, lambda v: genus_excluded_minor_test(P1, v)),
    ("k", 0, None, ultraloop_bf),
    ("k", 0, None, lambda v: ultraloop_bf(v, labels="ab")),
    ("m", 0, None, lambda v: indicator_from_gf2([], v)),
    ("orientation_choice", 0, 1, lambda v: alt_i(wheel(3), v)),
], ids=["enumerate_maps", "posies", "posy_variant", "free_loops",
        "loop_star_1", "loop_star_omega", "loop_star_omega2", "tricircuit_p",
        "tricircuit_q", "tricircuit_r", "reduce_map", "reduce_seq",
        "predict_commute_mu", "predict_commute_nu", "commute_check_mu",
        "commute_check_nu", "excluded_minor_witness",
        "genus_excluded_minor_test", "ultraloop_bf", "ultraloop_bf_labels",
        "indicator_from_gf2", "alt_i"])
def test_integer_arguments_share_one_check(name, least, most, call):
    # every integer argument is an int, not a bool, in its range, checked
    # by perm._int_arg with one wording: 2.5 and "3" are no count, and True
    # is not 1
    bounds = f"of at least {least}" if most is None else f"in {least}..{most}"
    bad = [2.5, True, "3", least - 1] + ([] if most is None else [most + 1])
    for value in bad:
        text = f"{name} must be an int {bounds}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            call(value)


def test_restriction_rejects_a_point_outside_the_domain():
    with pytest.raises(ValueError, match="point 'nope' not in domain"):
        Perm({0: 1, 1: 0}).restricted([0, 1, "nope"])
    with pytest.raises(ValueError, match="point 'nope' not in domain"):
        posy(1).restricted(["nope"])


@pytest.mark.parametrize("point", ["nope", ["x"], {}])
def test_one_lookup_rule_for_a_point_outside_the_domain(point):
    # hashable or not, an unknown point is a ValueError for the image, the
    # preimage and the restriction alike
    p = Perm({0: 1, 1: 0})
    message = "^" + re.escape(f"point {point!r} not in domain") + "$"
    for call in (p, p.inv, lambda x: p.restricted([0, 1, x]),
                 lambda x: posy(1).restricted([x])):
        with pytest.raises(ValueError, match=message):
            call(point)


def test_restriction_reads_its_edges_once():
    # an iterator serves both permutations
    g = posy(1)
    assert g.restricted(iter(g.edges)) == g
    two = build_map(["a", "b"], [("a",), ("b",)], [("a",), ("b",)])
    assert two.restricted(e for e in ["a"]) == \
        build_map(["a"], [("a",)], [("a",)])


PLAIN = st.one_of(st.text(max_size=3), st.integers(), st.booleans())


@given(st.one_of(st.sets(PLAIN, max_size=8),
                 st.sets(st.lists(PLAIN, max_size=3).map(tuple), max_size=8)))
def test_plain_labels_are_numbered_by_their_canonical_repr(points):
    # strs, ints and tuples of them are sorted by repr directly, the order
    # _canonical_repr gives; a bool is not an int here, and goes the long way
    labels, index = numbering(points)
    assert list(labels) == sorted(points, key=_canonical_repr)
    assert [index[x] for x in labels] == list(range(len(labels)))
