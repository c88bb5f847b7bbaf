"""Reductions, commutation, tricircuits, posies and the genus test."""

import pytest

from altdimaps import (classify_edge, commute_check,
                       genus_excluded_minor_test, is_posy, is_posy_union,
                       is_2_reduction_commutative,
                       is_totally_reduction_commutative, is_tricircuit,
                       map_stats, minor_closure, predict_commute, reduce_map,
                       reduce_seq, trial, trial_power, trimedial)
from altdimaps.catalog import (free_loops, isomorphic, loop_star_1,
                               loop_star_omega, loop_star_omega2, posies,
                               posy, tricircuit, ultraloop)
from altdimaps.core import EMPTY_MAP, InvariantError
from altdimaps.minors import _reduce, excluded_minor_witness

from conftest import (all_pairs_commute, digon_with_omega2_loop, maps_up_to,
                      totally_commutative_brute, witness_a)


# -- single reductions -------------------------------------------------------

def test_reduce_drops_one_edge():
    for g in maps_up_to(3, n_min=1):
        for e in g.edges:
            for mu in range(3):
                h = reduce_map(g, e, mu)
                assert h.n_edges == g.n_edges - 1
                assert e not in h.edges


def test_reduce_unknown_edge():
    with pytest.raises(ValueError):
        reduce_map(ultraloop(), "nope", 0)


def test_reduce_rejects_unknown_type():
    # a triloop used to be deleted before its type was looked at; 1.0 and
    # True equal 1 but are no reduction type
    for g, e in ((loop_star_omega(2), 0), (loop_star_1(3), 1)):
        for mu in (7, -1, "1", None, 1.0, True):
            with pytest.raises(ValueError, match="unknown reduction type"):
                reduce_map(g, e, mu)


def test_reduce_kernel_checks_the_triple_identity():
    # the kernel splices in the frame of the trial power mu and trusts
    # p∘q∘r = id around the edge; a σ₁ that does not close the triple of
    # the 1-posy (here the identity) is caught for every edge and type
    s1, sw, sw2 = posy(1).triple
    assert s1 == sw == sw2 == (1, 2, 0)
    for i in range(3):
        for mu in range(3):
            _reduce((s1, sw, sw2), i, mu)
            with pytest.raises(InvariantError):
                _reduce(((0, 1, 2), sw, sw2), i, mu)


def test_predict_commute_rejects_unknown_types_and_edges():
    g = loop_star_1(3)
    for args in ((0, 5, 1, 1), (0, 1, 1, 5), (99, 0, 1, 1), (0, 0, 99, 1),
                 (0, 1, 0, 2), (0, 1.0, 1, 1), (0, 1, 1, True)):
        for check in (predict_commute, commute_check):
            with pytest.raises(ValueError):
                check(g, *args)


def test_reduction_effects_on_counts():
    # a proper mu-loop's mu-reduction removes the corresponding cell
    g = loop_star_1(2)
    e = sorted(g.edges)[0]
    assert map_stats(reduce_map(g, e, 0)).n_vertices == \
        map_stats(g).n_vertices - 1
    g = loop_star_omega(2)
    e = sorted(g.edges)[0]
    assert map_stats(reduce_map(g, e, 1)).n_a_faces == \
        map_stats(g).n_a_faces - 1
    g = loop_star_omega2(2)
    e = sorted(g.edges)[0]
    assert map_stats(reduce_map(g, e, 2)).n_c_faces == \
        map_stats(g).n_c_faces - 1


# -- the trial-minor law -----------------------------------------------------

def test_trial_minor_law_small():
    # reducing in the trial image = trial of the shifted reduction
    for g in maps_up_to(3, n_min=1):
        for e in g.edges:
            for j in range(3):
                for i in range(3):
                    lhs = reduce_map(trial_power(g, j), e, i)
                    rhs = trial_power(reduce_map(g, e, (i + j) % 3), j)
                    assert lhs == rhs


# -- semiloop laws -----------------------------------------------------------

def test_semiloop_reduction_law_small():
    # mu-reducing a proper mu^{-1}-semiloop splits a component or
    # lowers the genus
    for g in maps_up_to(3, n_min=1):
        sg = map_stats(g)
        for e in g.edges:
            c = classify_edge(g, e)
            for mu in range(3):
                if c.is_proper_semiloop((-mu) % 3):
                    sh = map_stats(reduce_map(g, e, mu))
                    assert sh.n_components > sg.n_components \
                        or sh.genus < sg.genus


def test_semiloop_trial_law_small():
    # e is a mu-semiloop in G iff a (mu+1)-semiloop in the trial image
    for g in maps_up_to(3, n_min=1):
        h = trial(g)
        for e in g.edges:
            cg, ch = classify_edge(g, e), classify_edge(h, e)
            for mu in range(3):
                assert cg.is_semiloop(mu) == ch.is_semiloop((mu + 1) % 3)


def test_two_semiloop_rule_genus_zero():
    # on genus-0 maps: mu1- and mu2-semiloop (mu1 != mu2) iff
    # (mu1 mu2)^{-1}-loop; the loop => semiloops direction always holds
    for g in maps_up_to(4, n_min=1):
        planar = map_stats(g).genus == 0
        for e in g.edges:
            c = classify_edge(g, e)
            for m1 in range(3):
                for m2 in range(m1 + 1, 3):
                    both = c.is_semiloop(m1) and c.is_semiloop(m2)
                    lp = c.is_loop((-(m1 + m2)) % 3)
                    if lp:
                        assert both
                    if planar:
                        assert both == lp


# -- commutation -------------------------------------------------------------

def test_same_type_reductions_commute():
    for g in maps_up_to(3, n_min=2):
        edges = sorted(g.edges)
        for i, e in enumerate(edges):
            for f in edges[i + 1:]:
                for mu in range(3):
                    actual, _ = commute_check(g, e, mu, f, mu)
                    assert actual


def test_prediction_matches_actual_small():
    for g in maps_up_to(3, n_min=2):
        edges = sorted(g.edges)
        for i, e in enumerate(edges):
            for f in edges[i + 1:]:
                for mu in range(3):
                    for nu in range(3):
                        actual, predicted = commute_check(g, e, mu, f, nu)
                        assert actual == predicted


def test_commute_needs_distinct_edges():
    g = loop_star_1(2)
    e = sorted(g.edges)[0]
    with pytest.raises(ValueError):
        commute_check(g, e, 0, e, 1)


def test_reduce_seq_matches_composition():
    g = posy(2)
    e, f = sorted(g.edges)[:2]
    assert reduce_seq(g, [(e, 1), (f, 2)]) == \
        reduce_map(reduce_map(g, e, 1), f, 2)


# -- reduction-commutative classes --------------------------------------------

def test_2_commutative_matches_brute_pairs():
    # the named maps mix integer and string edge labels
    extra = [witness_a(), digon_with_omega2_loop(), tricircuit(2, 3, 1)]
    for g in maps_up_to(3, n_min=0) + extra:
        assert is_2_reduction_commutative(g) == all_pairs_commute(g)


def test_totally_commutative_structural_matches_brute():
    for g in maps_up_to(3, n_min=1):
        assert is_totally_reduction_commutative(g) == \
            totally_commutative_brute(g)


def test_totally_commutative_examples():
    for g in (ultraloop(), loop_star_1(3), loop_star_omega(2), posy(1),
              tricircuit(1, 1, 1), tricircuit(2, 1, 0),
              digon_with_omega2_loop()):  # = the (2,0,1) tricircuit
        assert is_totally_reduction_commutative(g)
    assert not is_totally_reduction_commutative(posy(2))


def test_trimedial_is_6_regular():
    g = posy(2)
    tm = trimedial(g)
    assert all(tm.degree(v) == 6 for v in tm.vertices)


# -- tricircuits --------------------------------------------------------------

def test_tricircuit_recognition():
    assert is_tricircuit(ultraloop())
    assert is_tricircuit(tricircuit(3, 2, 0))
    assert is_tricircuit(tricircuit(2, 1, 1) if False else tricircuit(1, 1, 1))
    assert not is_tricircuit(posy(1))
    assert not is_tricircuit(free_loops(2))  # disconnected


def test_tricircuit_degenerate_forms():
    assert isomorphic(tricircuit(1, 2, 0), loop_star_omega(3))
    assert isomorphic(tricircuit(1, 0, 2), loop_star_omega2(3))
    assert isomorphic(tricircuit(0, 1, 0), ultraloop())
    assert isomorphic(tricircuit(3, 0, 0), loop_star_1(3))
    with pytest.raises(ValueError):
        tricircuit(0, 2, 1)  # both loop kinds need a circuit edge


# -- posies and genus ---------------------------------------------------------

def test_posy_recognition():
    assert is_posy(ultraloop()) == 0
    assert is_posy(posy(1)) == 1
    assert is_posy(posy(2)) == 2
    assert is_posy(loop_star_1(3)) is None
    assert is_posy_union(free_loops(2)) == 0
    assert is_posy_union(posy(1)) == 1


def is_posy_by_counts(g):
    """The four-count test that is_posy made before it read
    is_posy_union."""
    if not g.edges:
        return None
    st = map_stats(g)
    if (st.n_components == 1 and st.n_vertices == 1
            and st.n_a_faces == 1 and st.n_c_faces == 1
            and st.n_edges == 2 * st.genus + 1):
        return st.genus
    return None


def test_is_posy_against_the_four_counts():
    maps = maps_up_to(6) + [EMPTY_MAP, free_loops(2)]
    maps += [m for k in (1, 2, 3) for m in posies(k)]
    verdicts = [is_posy_by_counts(g) for g in maps]
    assert [is_posy(g) for g in maps] == verdicts
    assert {k: verdicts.count(k) for k in (0, 1, 2, 3)} == \
        {0: 1, 1: 2, 2: 7, 3: 19}


def posy_union_per_component(g):
    """is_posy_union as a sum over components, each tested by is_posy."""
    total = 0
    for comp in g.components():
        k = is_posy(g.restricted(comp))
        if k is None:
            return None
        total += k
    return total


def test_posy_union_from_whole_map_counts():
    reps = [m for g in maps_up_to(5) for m in minor_closure(g).values()]
    assert len(reps) == 3088
    verdicts = [posy_union_per_component(m) for m in reps]
    assert [is_posy_union(m) for m in reps] == verdicts
    assert {k: verdicts.count(k) for k in (None, 0, 1, 2)} == \
        {None: 2268, 0: 743, 1: 73, 2: 4}


def test_minor_closure_contains_self_and_empty():
    g = posy(1)
    clo = minor_closure(g)
    codes = list(clo.values())
    assert any(m == g for m in codes)
    assert any(not m.edges for m in codes)


def test_genus_excluded_minor_small():
    from altdimaps import genus_excluded_minor_test
    for g in maps_up_to(3, n_min=1):
        for k in (1, 2):
            below, no_wit = genus_excluded_minor_test(g, k)
            assert below == no_wit


def test_genus_test_refuses_a_k_that_is_not_an_int():
    """posy(2) has genus 2 and only posy unions of integer genus as
    minors, so k = 1.5 once read (False, True), a false counterexample to
    the theorem; True acted as 1.  Any k but an int is refused, as is a
    negative one."""
    g = posy(2)
    for k in (1.5, 2.0, True, False, "1", None, -1):
        for test in (genus_excluded_minor_test, excluded_minor_witness):
            with pytest.raises(ValueError, match="genus k must be"):
                test(g, k)
    assert genus_excluded_minor_test(g, 2) == (False, False)
    assert genus_excluded_minor_test(g, 3) == (True, True)
