"""One rule each in the map layer: the incidence readers resolve an edge
through AltDimap.number, the genus of a map and of an embedded graph
comes from one Euler rule, and the Tutte oracle orders its edges by
perm.numbering, whatever the hash seed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import altdimaps
from altdimaps.catalog import posy
from altdimaps.embedded import euler_genus

from conftest import maps_up_to


def ref_vertex_of(g, e):
    """The in-star through e as the walk of σ₁ from e's number: the body
    of AltDimap.vertex_of before it read Perm.cycles."""
    s1 = g.s1
    i = s1.index[e]
    cyc, j = [i], s1.img[i]
    while j != i:
        cyc.append(j)
        j = s1.img[j]
    return frozenset(map(s1.labels.__getitem__, cyc))


def test_incidence_equals_the_cycle_walk(six_edge_maps):
    edges = 0
    for g in maps_up_to(5, n_min=1) + six_edge_maps:
        for e in g.edges:
            assert g.vertex_of(e) == g.head(e) == ref_vertex_of(g, e), (g, e)
            assert g.tail(e) == ref_vertex_of(g, g.sw(e)), (g, e)
            edges += 1
    assert edges == 1 + 4 * 2 + 11 * 3 + 43 * 4 + 161 * 5 + 901 * 6


@pytest.mark.parametrize("reader", ["vertex_of", "head", "tail"])
def test_incidence_rejects_an_unknown_edge(reader):
    with pytest.raises(ValueError, match="edge 'nope' not in map"):
        getattr(posy(1), reader)("nope")


UNKNOWN_EDGE = r"^edge \['x'\] not in map$"


@pytest.mark.parametrize("call, message", [
    (lambda g, e: altdimaps.T_c(g, [e] * g.n_edges),
     "^order must be a permutation of the edge set$"),
    (lambda g, e: altdimaps.reduce_map(g, e, 0), UNKNOWN_EDGE),
    (lambda g, e: altdimaps.predict_commute(g, e, 0, 0, 1), UNKNOWN_EDGE),
    (altdimaps.classify_edge, UNKNOWN_EDGE),
], ids=["T_c", "reduce_map", "predict_commute", "classify_edge"])
def test_an_unhashable_label_is_an_unknown_edge(call, message):
    # AltDimap.number reads its dict once and refuses a label it cannot
    # hash as it refuses any unknown label: ValueError, not TypeError
    with pytest.raises(ValueError, match=message):
        call(posy(1), ["x"])


def test_euler_genus():
    assert euler_genus(3, 3, 2, 1) == 0  # a triangle in the plane
    assert euler_genus(1, 2, 1, 1) == 1  # two loops on the torus
    assert euler_genus(2, 0, 2, 2) == 0  # two isolated vertices
    # no map or embedded graph has these counts
    with pytest.raises(ValueError, match="odd Euler characteristic"):
        euler_genus(1, 1, 1, 1)
    with pytest.raises(ValueError, match="negative genus"):
        euler_genus(4, 0, 4, 1)


# -- the oracle's edge order does not depend on the hash seed --------------------

ORDER_SCRIPT = """
from altdimaps import EmbeddedGraph, plane_multigraph, tutte_poly
def edge(u, v):
    return frozenset([u, v])
p = EmbeddedGraph("abcd", {
    "a": [(edge("a", "b"), 0), (edge("d", "a"), 1)],
    "b": [(edge("b", "c"), 0), (edge("a", "b"), 1)],
    "c": [(edge("c", "d"), 0), (edge("b", "c"), 1)],
    "d": [(edge("d", "a"), 0), (edge("c", "d"), 1)]})
mg = plane_multigraph(p)
print([(sorted(e), u, v) for e, u, v in mg.edges])
print(tutte_poly(mg))
"""


def test_oracle_edge_order_is_the_same_under_every_hash_seed():
    src = Path(altdimaps.__file__).parent.parent
    outputs = []
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=os.pathsep.join(
                       [str(src), os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", ORDER_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=60,
                             check=True)
        outputs.append(run.stdout)
    assert outputs[0].splitlines()[0] == (
        "[(['a', 'b'], 'a', 'b'), (['a', 'd'], 'd', 'a'), "
        "(['b', 'c'], 'b', 'c'), (['c', 'd'], 'c', 'd')]")
    assert outputs == outputs[:1] * 4
