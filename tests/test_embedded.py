"""Rotation systems as dart permutations, against the walks they replace."""

import pytest

from altdimaps import EmbeddedGraph, rotation_system

from conftest import K4_TORUS, maps_up_to, rotation_systems


# -- the dictionary walks that traced faces and components before -------------

def ref_trace_faces(eg):
    """Face orbits by a walk over a successor dictionary: the next dart is
    the rotation successor of the mate.  Each dartless vertex bounds one
    empty face."""
    succ = {}
    for rot in eg.rotations.values():
        for i, d in enumerate(rot):
            succ[d] = rot[(i + 1) % len(rot)]
    faces, seen = [], set()
    for d0 in succ:
        if d0 in seen:
            continue
        face, d = [], d0
        while True:
            face.append(d)
            seen.add(d)
            d = succ[(d[0], 1 - d[1])]
            if d == d0:
                break
        faces.append(tuple(face))
    return faces + [() for rot in eg.rotations.values() if not rot]


def ref_components(eg):
    """Vertex sets of components by depth-first search over the adjacency
    sets read off the rotations."""
    home = {d: v for v, rot in eg.rotations.items() for d in rot}
    adj = {v: set() for v in eg.vertices}
    for (e, i), v in home.items():
        adj[v].add(home[(e, 1 - i)])
    comps, seen = set(), set()
    for v0 in eg.vertices:
        if v0 in seen:
            continue
        stack, comp = [v0], set()
        while stack:
            v = stack.pop()
            if v not in comp:
                comp.add(v)
                stack.extend(adj[v] - comp)
        seen |= comp
        comps.add(frozenset(comp))
    return comps


def cyclic_forms(faces):
    """Each face rotated to start at its least dart (by repr), sorted."""
    out = []
    for f in faces:
        k = min(range(len(f)), key=lambda i: repr(f[i]), default=0)
        out.append(f[k:] + f[:k])
    return sorted(out, key=repr)


def assert_agrees_with_the_walks(eg):
    faces, comps = ref_trace_faces(eg), ref_components(eg)
    edges = {e for rot in eg.rotations.values() for e, _ in rot}
    chi = len(eg.vertices) - len(edges) + len(faces)
    assert cyclic_forms(eg.trace_faces()) == cyclic_forms(faces)
    assert set(eg.components()) == comps
    assert len(eg.components()) == len(comps)
    assert eg.k_minus_gamma() == chi // 2
    assert eg.genus() == len(comps) - chi // 2


def test_faces_and_components_on_every_small_rotation_system():
    graphs = list(rotation_systems(3))
    assert len(graphs) == 3 * (1 + 2 + 24 + 720)
    assert {eg.genus() for eg in graphs} == {0, 1}
    for eg in graphs:
        assert_agrees_with_the_walks(eg)


def test_faces_and_components_on_the_maps_up_to_five_edges():
    maps = maps_up_to(5)
    assert len(maps) == 221
    for g in maps:
        assert_agrees_with_the_walks(rotation_system(g))


def test_faces_and_components_on_a_toroidal_k4():
    eg = EmbeddedGraph(K4_TORUS.keys(), K4_TORUS)
    assert_agrees_with_the_walks(eg)
    assert eg.genus() == 1 and len(eg.trace_faces()) == 2


def test_the_darts_are_numbered_as_first_met():
    eg = EmbeddedGraph(["u", "v"], {"u": [("a", 0), ("b", 0), ("b", 1)],
                                    "v": [("a", 1)]})
    darts = [d for rot in eg.rotations.values() for d in rot]
    assert list(eg.darts) == darts
    for k, (e, i) in enumerate(eg.darts):
        assert eg.darts[eg.alpha[k]] == (e, 1 - i)
        rot = eg.rotations[eg.dart_vertex[(e, i)]]
        assert eg.darts[eg.rho[k]] == rot[(rot.index((e, i)) + 1) % len(rot)]


# -- the errors of a bad rotation ---------------------------------------------

def test_rejects_a_dart_met_twice():
    with pytest.raises(ValueError, match=r"dart \('a', 0\) appears twice"):
        EmbeddedGraph(["u", "v"], {"u": [("a", 0), ("a", 1)],
                                   "v": [("a", 0)]})


def test_rejects_an_edge_without_both_darts():
    with pytest.raises(ValueError,
                       match=r"edge 'a' needs exactly darts \(e,0\),\(e,1\)"):
        EmbeddedGraph(["u"], {"u": [("a", 0), ("b", 0), ("b", 1)]})


@pytest.mark.parametrize("dart", [("a", 0, 9), ("a", 2), ("a",), "a0", 7])
def test_rejects_a_dart_that_is_not_an_edge_end(dart):
    with pytest.raises(ValueError, match=r"is not an \(edge, 0 \| 1\) pair"):
        EmbeddedGraph(["u"], {"u": [dart, ("a", 1)]})
