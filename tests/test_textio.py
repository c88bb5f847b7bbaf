"""Map and plane-graph documents, DOT and JSON exports."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import altdimaps
from altdimaps import (AltDimap, DocumentError, Perm, alt_a, alt_c, alt_i,
                       build_map, edge_class_summary, export_dot,
                       export_json, isomorphic, map_stats, parse_map,
                       parse_plane_graph, plane_multigraph, serialize_map)
from altdimaps.catalog import (add_omega_loop, loop_star_1, posy, tricircuit,
                               ultraloop)

from conftest import maps_up_to, plane_suite, random_maps

ULTRALOOP_DOC = """map ultra
edges e
sigma_omega ()
sigma_omega2 ()
"""

POSY_DOC = """map p1
edges a b c
sigma_omega (a c b)
sigma_omega2 (a c b)
"""


def test_ultraloop_roundtrip():
    g = parse_map(ULTRALOOP_DOC)
    assert isomorphic(g, ultraloop())
    assert serialize_map(parse_map(serialize_map(g, "ultra")), "ultra") == \
        serialize_map(g, "ultra")


def test_posy_doc():
    g = parse_map(POSY_DOC)
    assert isomorphic(g, posy(1))


def test_serialize_is_canonical_small():
    # serialize . parse . serialize = serialize
    for g in maps_up_to(3):
        t = serialize_map(g)
        assert serialize_map(parse_map(t)) == t


def test_tuple_labels_roundtrip():
    maps = [tricircuit(2, 3, 1), tricircuit(1, 1, 1),
            add_omega_loop(posy(1), 0, 0)]
    for p in plane_suite().values():
        maps += [alt_c(p), alt_a(p), alt_i(p)]
    for g in maps:
        t = serialize_map(g)
        h = parse_map(t)
        assert h.n_edges == g.n_edges and isomorphic(h, g), t
        assert serialize_map(h) == t


def test_reserved_characters_in_labels():
    g = build_map(["a b", "(c)", "d#", "e%20"], [("a b", "(c)")],
                  [("d#", "e%20")])
    h = parse_map(serialize_map(g))
    assert h.edges == {"a b", "(c)", "d#", "e%20"}
    assert h == g


def test_labels_with_one_str_rejected():
    # 1 and "1" would both be written as the token 1; the JSON export
    # would give them one classification key and the DOT export two arcs
    # with one label
    g = build_map([1, "1"], [(1, "1")], [])
    for write in (serialize_map, export_dot, export_json):
        with pytest.raises(ValueError, match="same str"):
            write(g)


def test_label_with_empty_str_rejected():
    # it would be written as an empty token, and the document would read
    # back as a different map with one edge
    g = build_map(["", "a"], [("", "a")], [])
    for write in (serialize_map, export_dot, export_json):
        with pytest.raises(ValueError, match="str is empty"):
            write(g)


LABELS = st.one_of(st.integers(-20, 20), st.text(min_size=1, max_size=4),
                   st.tuples(st.sampled_from("ab"), st.integers(0, 2)))


@given(random_maps(), st.data())
def test_serialize_parse_is_relabelling(g, data):
    labels = data.draw(st.lists(LABELS, min_size=g.n_edges,
                                max_size=g.n_edges, unique=True))
    name = dict(zip(sorted(g.edges), labels))
    g = AltDimap(Perm({name[e]: name[g.sw(e)] for e in g.edges}),
                 Perm({name[e]: name[g.sw2(e)] for e in g.edges}))
    if len(set(map(str, labels))) < len(labels):
        with pytest.raises(ValueError):
            serialize_map(g)
        return
    # every label reads back as its str
    h = parse_map(serialize_map(g))
    assert h == AltDimap(Perm({str(e): str(g.sw(e)) for e in g.edges}),
                         Perm({str(e): str(g.sw2(e)) for e in g.edges}))


@given(st.text())
@example("a\nedges x")
@example("x\r")
@example("a\u2028b")
def test_serialize_writes_any_name_as_one_token(name):
    # a line break in the name would otherwise split the 'map' line
    g = tricircuit(2, 1, 1)
    doc = serialize_map(g, name)
    assert len(doc.splitlines()) == 4
    assert parse_map(doc) == parse_map(serialize_map(g))


def test_parse_errors():
    with pytest.raises(DocumentError, match="duplicate edge label"):
        parse_map("map x\nedges a a\nsigma_omega ()\nsigma_omega2 ()")
    with pytest.raises(DocumentError, match="repeated"):
        parse_map("map x\nedges a\nsigma_omega (a a)\nsigma_omega2 ()")
    with pytest.raises(DocumentError, match="unknown edge label 'b'"):
        parse_map("map x\nedges a\nsigma_omega (b)\nsigma_omega2 ()")
    with pytest.raises(DocumentError, match="line 3"):
        parse_map("map x\nedges a\nsigma_omega (a\nsigma_omega2 ()")
    with pytest.raises(DocumentError, match="missing 'sigma_omega2'"):
        parse_map("map x\nedges a\nsigma_omega ()")
    with pytest.raises(DocumentError, match="unrecognized"):
        parse_map("sigma_three ()")


def test_comments_and_blank_lines():
    g = parse_map("# a comment\n\nmap x  # trailing\nedges e\n"
                  "sigma_omega ()\nsigma_omega2 ()\n")
    assert g.n_edges == 1


# -- plane-graph documents ------------------------------------------------------

K2_DOC = """planegraph K2
vertex u: a0
vertex v: a1
edge a: a0 a1
"""


def test_plane_graph_roundtrip():
    p = parse_plane_graph(K2_DOC)
    mg = plane_multigraph(p)
    assert len(mg.vertices) == 2 and len(mg.edges) == 1


def test_plane_graph_errors():
    with pytest.raises(DocumentError, match="two rotations"):
        parse_plane_graph("vertex u: a0 a0\nedge a: a0 a1\nvertex v: a1")
    with pytest.raises(DocumentError, match="exactly two darts"):
        parse_plane_graph("vertex u: a0\nedge a: a0")
    with pytest.raises(DocumentError, match="belongs to no edge"):
        parse_plane_graph("vertex u: a0 b9\nvertex v: a1\nedge a: a0 a1")
    with pytest.raises(DocumentError, match="belongs to no rotation"):
        parse_plane_graph("vertex u: a0\nvertex v: a1\n"
                          "edge a: a0 a1\nedge b: b0 b1")


def test_plane_graph_dart_in_two_edges_names_the_second_edge_line():
    doc = ("planegraph p\n# two edges share the dart a1\n"
           "vertex u: a0 b0\nvertex v: a1 b1\n"
           "edge a: a0 a1\n\nedge b: b0 a1\n")
    with pytest.raises(DocumentError,
                       match=r"^line 7: dart 'a1' appears in two edges$"):
        parse_plane_graph(doc)


def test_plane_graph_edge_naming_one_dart_twice():
    doc = "planegraph p\nvertex u: a0 a1\nedge a: a0 a0\n"
    with pytest.raises(DocumentError,
                       match=r"^line 3: edge 'a' names dart 'a0' twice$"):
        parse_plane_graph(doc)


def test_plane_graph_dart_in_no_rotation_names_its_edge_line():
    with pytest.raises(DocumentError) as err:
        parse_plane_graph("vertex u: a0\nvertex v: a1\nedge a: a0 a1\n"
                          "edge b: b0 b1")
    assert str(err.value) == "line 4: dart 'b0' belongs to no rotation"
    assert err.value.line_no == 4


# -- exports ---------------------------------------------------------------------

def test_export_dot_ultraloop():
    dot = export_dot(ultraloop())
    assert dot.count("->") == 1
    assert dot.count("[label=\"{") == 1  # one node


def test_export_dot_two_cycle():
    dot = export_dot(loop_star_1(2))
    assert dot.count("->") == 2
    assert dot.count("[label=\"{") == 2


def test_export_dot_strings_read_back():
    # every quoted DOT string unescapes to its node or edge label, also
    # for labels with a quote or a backslash
    g = parse_map('map m\nedges a"b c\\d\nsigma_omega (a"b c\\d)\n'
                  'sigma_omega2\n')
    for m in (g, posy(2), alt_c(plane_suite()["theta"])):
        dot = export_dot(m)
        quoted = r'"((?:[^"\\]|\\.)*)"'
        assert '"' not in re.sub(quoted, "", dot)  # every quote is paired
        strings = [re.sub(r"\\(.)", r"\1", q) for q in re.findall(quoted, dot)]
        nodes = ["{" + ",".join(sorted(map(str, v))) + "}" for v in m.vertices()]
        edges = [f"{e} ({edge_class_summary(m, e)})" for e in m.edges]
        assert sorted(strings) == sorted(nodes + edges)


def test_export_json_posy():
    doc = json.loads(export_json(posy(1)))
    assert doc["stats"]["genus"] == 1
    assert doc["stats"]["edges"] == 3
    assert len(doc["sigma_omega"]) == 1


def test_exports_deterministic():
    g = posy(2)
    assert export_dot(g) == export_dot(g)
    assert export_json(g) == export_json(g)


def test_frozenset_labels_write_alike():
    # {8, 16} collide in a small set table, so a frozenset's str follows
    # its insertion order; equal maps must still write one document
    a1, a2 = frozenset([8, 16]), frozenset([16, 8])
    assert str(a1) != str(a2)
    b, c = frozenset([2, 3]), frozenset(["c"])
    maps = [AltDimap(Perm({a: b, b: c, c: a}), Perm({a: a, b: c, c: b}))
            for a in (a1, a2)]
    assert maps[0] == maps[1]
    for write in (serialize_map, export_dot, export_json):
        assert write(maps[0]) == write(maps[1])


NAME_SCRIPT = """
from altdimaps import posy
from altdimaps.textio import serialize_map
print(serialize_map(posy(1), frozenset(['ab', 'cd', 'ef'])).splitlines()[0])
"""


def test_a_map_name_is_written_by_the_label_rule():
    # a frozenset's str follows its insertion history, which the hash seed
    # decides; the name, like a label, is written in its canonical order
    src = Path(altdimaps.__file__).parent.parent
    outputs = []
    for seed in (0, 1):
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=os.pathsep.join(
                       [str(src), os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", NAME_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=60,
                             check=True)
        outputs.append(run.stdout)
    assert outputs == ["map frozenset%28{'ab',%20'cd',%20'ef'}%29\n"] * 2
