"""T_i derived from T_c's case table by triality and reflection.

T_i(G) is T_c's table with y = x run on H = trial²(reflect(G)).  These
tests hold the derived T_i against the hand-written in-star table that it
replaced, and pin the two correspondences between G and H that the
derivation rests on: loop and semiloop types move by π(μ) = 2 − μ,
reduction types by τ(μ) = 1 − μ.
"""

from itertools import permutations

from altdimaps import (T_i, classify_edge, invariants, reduce_map, reflect,
                       trial_power)
from altdimaps.core import MU1, MUW, MUW2
from altdimaps.poly import Poly1

from conftest import maps_up_to


IN_STAR = invariants._Table((
    lambda c: c.is_1_loop,
    lambda c: c.is_proper_semiloop(MUW) or c.is_omega2_loop,
    lambda c: c.is_proper_semiloop(MUW2) or c.is_omega_loop,
    lambda c: not (c.is_1_semiloop or c.is_omega_semiloop
                   or c.is_omega2_semiloop)))


def T_i_table(g, order=None):
    """The in-star recursion as its own hand-written case table."""
    x = Poly1.var()
    return invariants._recurse(g, invariants._numbers(g, order), IN_STAR, (
        ((None, MU1),), ((x, MUW2),), ((x, MUW),), ((None, MUW), (None, MUW2)),
    ), Poly1.one(), Poly1.zero(), "in-star")


def _outcome(recursion, g, order):
    try:
        return recursion(g, order)
    except ValueError as err:
        return f"ValueError: {err}"


def test_derived_T_i_matches_its_table_in_every_order():
    pairs = raised = 0
    for g in maps_up_to(5):
        for order in permutations(sorted(g.edges, key=repr)):
            want = _outcome(T_i_table, g, list(order))
            assert _outcome(T_i, g, list(order)) == want, (g, order)
            pairs += 1
            raised += isinstance(want, str)
    assert pairs == 1 + 1 + 4 * 2 + 11 * 6 + 43 * 24 + 161 * 120
    assert 0 < raised < pairs


def test_trial2_reflect_moves_loops_by_pi_and_reductions_by_tau():
    for g in maps_up_to(5, n_min=1):
        h = trial_power(reflect(g), 2)
        for e in g.edges:
            cg, ch = classify_edge(g, e), classify_edge(h, e)
            minors = [reduce_map(g, e, mu) for mu in range(3)]
            for mu in range(3):
                pi, tau = (2 - mu) % 3, (1 - mu) % 3
                assert cg.is_loop(mu) == ch.is_loop(pi), (g, e, mu)
                assert cg.is_semiloop(mu) == ch.is_semiloop(pi), (g, e, mu)
                assert trial_power(reflect(minors[mu]), 2) == \
                    reduce_map(h, e, tau), (g, e, mu)
                # the two facts that pull T_c's rows back to T_i's: a
                # proper μ-loop is a ν-semiloop exactly for ν ≠ μ, and a
                # triloop is removed alike by all three types
                if cg.is_proper_loop(mu):
                    assert [cg.is_semiloop(nu) for nu in range(3)] == \
                        [nu != mu for nu in range(3)], (g, e, mu)
            if cg.is_triloop:
                assert minors[0] == minors[1] == minors[2], (g, e)
