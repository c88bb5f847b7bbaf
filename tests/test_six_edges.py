"""The paper's minor characterisations checked on every map with six edges
(and the pair prediction on every map with five)."""

from altdimaps import (canonical_code, commute_check,
                       genus_excluded_minor_test,
                       is_totally_reduction_commutative, is_tricircuit,
                       map_stats)
from altdimaps.catalog import loop_star_1, loop_star_omega, loop_star_omega2
from altdimaps.core import ALL_MU

from conftest import maps_up_to


def test_six_edge_map_count(six_edge_maps):
    assert len(six_edge_maps) == 901


def _assert_pair_predictions(maps):
    # both sides of commute_check are symmetric in the two reductions, so
    # unordered edge pairs with every ordered type pair cover all cases
    for g in maps:
        edges = g.sw.labels
        for i, e in enumerate(edges):
            for f in edges[i + 1:]:
                for mu in ALL_MU:
                    for nu in ALL_MU:
                        actual, predicted = commute_check(g, e, mu, f, nu)
                        assert actual == predicted, \
                            (canonical_code(g).hex(), e, mu, f, nu)


def test_pair_prediction_five_edges():
    # criterion 3 of the acceptance suite covers the maps with at most four
    _assert_pair_predictions(maps_up_to(5, n_min=5))


def test_pair_prediction_six_edges(six_edge_maps):
    _assert_pair_predictions(six_edge_maps)


def test_genus_excluded_minor_theorem(six_edge_maps):
    for g in six_edge_maps:
        for k in (1, 2, 3):
            below, no_witness = genus_excluded_minor_test(g, k)
            assert below == no_witness


def test_totally_commutative_maps(six_edge_maps):
    found = [g for g in six_edge_maps if is_totally_reduction_commutative(g)]
    assert len(found) == 94
    connected = [g for g in found if map_stats(g).n_components == 1]
    # the pure 1-, ω- and ω²-circuits
    assert all(is_tricircuit(g) for g in connected)
    assert sorted(canonical_code(g) for g in connected) == sorted(
        canonical_code(f(6))
        for f in (loop_star_1, loop_star_omega, loop_star_omega2))
