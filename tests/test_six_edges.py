"""The paper's minor characterisations checked on every map with six edges."""

from altdimaps import (canonical_code, genus_excluded_minor_test,
                       is_totally_reduction_commutative, is_tricircuit,
                       map_stats)
from altdimaps.catalog import loop_star_1, loop_star_omega, loop_star_omega2


def test_six_edge_map_count(six_edge_maps):
    assert len(six_edge_maps) == 901


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
