"""The readers of clockwise dart lists against the bodies they replace:
map_from_rotations and parse_plane_graph, and the dart numbering of
EmbeddedGraph under different hash seeds."""

import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Hashable, List, Mapping, Sequence, Tuple

from hypothesis import example, given, strategies as st

import altdimaps
from altdimaps import (AltDimap, EmbeddedGraph, Perm, map_from_rotations,
                       parse_plane_graph, rotation_system)
from altdimaps.textio import DocumentError, _content_lines

from conftest import (maps_up_to, plane_document, plane_suite, random_maps,
                      wheel_rotations)


# -- the bodies the readers had before they read consecutive darts -------------

def ref_map_from_rotations(rotations: Mapping[Hashable, Sequence[Tuple[Hashable, str]]]) -> AltDimap:
    """Inverse of rotation_system: build a map from per-vertex clockwise
    dart orders, where each dart is (edge, 'in') or (edge, 'out') and the
    two kinds alternate around every vertex.  Both face permutations are
    local: at a vertex with darts [in e0, out f0, in e1, out f1, ...],
    sw(fi) = ei and sw2(ei) = f(i-1)."""
    swm: Dict[Hashable, Hashable] = {}
    sw2m: Dict[Hashable, Hashable] = {}
    seen_in, seen_out = set(), set()
    for v, rot in rotations.items():
        if not rot:
            continue
        if len(rot) % 2:
            raise ValueError(f"odd dart count at vertex {v!r}")
        kinds = [k for _, k in rot]
        if kinds not in (["in", "out"] * (len(rot) // 2),
                         ["out", "in"] * (len(rot) // 2)):
            raise ValueError(f"darts do not alternate 'in'/'out' at vertex {v!r}")
        # rotate so the list starts with an incoming dart
        if kinds[0] == "out":
            rot = list(rot[1:]) + [rot[0]]
        ins = [e for e, k in rot[0::2]]
        outs = [e for e, k in rot[1::2]]
        for i, e in enumerate(ins):
            if e in seen_in:
                raise ValueError(f"edge {e!r} comes in twice")
            seen_in.add(e)
            # out dart following in(e) clockwise carries the left
            # successor sw⁻¹(e)
            swm[outs[i]] = e
            sw2m[e] = outs[i - 1]
        for e in outs:
            if e in seen_out:
                raise ValueError(f"edge {e!r} goes out twice")
            seen_out.add(e)
    if seen_in != seen_out:
        raise ValueError("every edge needs one in dart and one out dart")
    return AltDimap(Perm(swm), Perm(sw2m))


def ref_parse_plane_graph(text: str) -> EmbeddedGraph:
    """Parse a plane-graph document into a checked genus-0 embedding."""
    vertex_rot: Dict[str, List[str]] = {}
    dart_edge: Dict[str, Tuple[str, int]] = {}
    dart_home: Dict[str, int] = {}
    edges: set = set()
    for line_no, line in _content_lines(text):
        key, _, body = line.partition(" ")
        if key == "planegraph":
            continue
        if key not in ("vertex", "edge"):
            raise DocumentError(line_no, f"unrecognized directive {key!r}")
        name, colon, darts_txt = body.partition(":")
        name = name.strip()
        if not colon:
            raise DocumentError(line_no, f"missing ':' after {key} name")
        darts = darts_txt.split()
        if key == "vertex":
            if name in vertex_rot:
                raise DocumentError(line_no, f"duplicate vertex {name!r}")
            for d in darts:
                if d in dart_home:
                    raise DocumentError(line_no, f"dart {d!r} appears in two "
                                                 f"rotations")
                dart_home[d] = line_no
            vertex_rot[name] = darts
        else:
            if name in edges:
                raise DocumentError(line_no, f"duplicate edge {name!r}")
            edges.add(name)
            if len(darts) != 2:
                raise DocumentError(line_no, f"edge {name!r} must pair exactly "
                                             f"two darts")
            if darts[0] == darts[1]:
                raise DocumentError(line_no, f"edge {name!r} names dart "
                                             f"{darts[0]!r} twice")
            for end, d in enumerate(darts):
                if d in dart_edge:
                    raise DocumentError(line_no, f"dart {d!r} appears in two "
                                                 f"edges")
                dart_edge[d] = (name, end)
    rotations: Dict[str, List[Tuple[str, int]]] = {}
    for v, darts in vertex_rot.items():
        rot = []
        for d in darts:
            if d not in dart_edge:
                raise DocumentError(dart_home[d], f"dart {d!r} belongs to no "
                                                  f"edge")
            rot.append(dart_edge[d])
        rotations[v] = rot
    missing = set(dart_edge) - set(dart_home)
    if missing:
        raise DocumentError(0, f"dart {sorted(missing)[0]!r} belongs to no "
                               f"rotation")
    eg = EmbeddedGraph(rotations.keys(), rotations)
    gam = eg.genus()
    if gam:
        raise ValueError(f"total genus {gam}; not plane")
    return eg


def outcome(read, arg):
    """What read(arg) gives: its result, or the type and text of the
    ValueError it raises."""
    try:
        return read(arg)
    except ValueError as err:
        return type(err), str(err)


# -- rotation dicts -------------------------------------------------------------

KINDS = ("in", "out")


def kind_rotations(g):
    """rotation_system(g) in the dart-kind format."""
    return {v: [(e, KINDS[end]) for e, end in rot]
            for v, rot in rotation_system(g).rotations.items()}


@st.composite
def rotation_dicts(draw):
    """Valid dicts from maps, turned and mutated, and loose dicts over a
    few edge names whose kinds mostly alternate: odd counts, unknown
    kinds, edges met twice and unpaired edges."""
    if draw(st.booleans()):
        rots = {}
        for v in range(draw(st.integers(0, 3))):
            edges = draw(st.lists(st.sampled_from("abcd"), max_size=6))
            first = draw(st.integers(0, 1))
            rots[v] = [(e, KINDS[(first + i) % 2]) for i, e in enumerate(edges)]
    else:
        rots = kind_rotations(draw(random_maps(max_n=4)))
        for v, rot in rots.items():
            turn = draw(st.integers(0, len(rot) - 1))
            rots[v] = rot[turn:] + rot[:turn]
    for _ in range(draw(st.integers(0, 2))):
        if not rots:
            break
        rot = rots[draw(st.sampled_from(sorted(rots, key=repr)))]
        i = draw(st.integers(0, len(rot)))
        change = draw(st.sampled_from(["drop", "copy", "kind", "new"]))
        if change == "drop" and rot:
            del rot[i % len(rot)]
        elif change == "copy":
            source = rots[draw(st.sampled_from(sorted(rots, key=repr)))]
            rot[i:i] = source[:2]
        elif change == "kind" and rot:
            e, _ = rot[i % len(rot)]
            rot[i % len(rot)] = (e, draw(st.sampled_from(["in", "out", "up"])))
        elif change == "new":
            rot[i:i] = [("z", "in"), ("y", "out")]
    return rots


@given(rotation_dicts())
@example({"u": [("a", "in"), ("b", "out"), ("c", "in"), ("d", "out")],
          "v": [("d", "out"), ("x", "in"), ("b", "out"), ("y", "in")]})
@example({"u": [("a", "out"), ("b", "in")], "v": [("b", "in"), ("a", "in")]})
@example({"v": []})
def test_map_from_rotations_against_the_index_loops(rotations):
    new, old = outcome(map_from_rotations, rotations), \
        outcome(ref_map_from_rotations, rotations)
    assert new == old


def test_map_from_rotations_reads_every_turn_of_a_rotation():
    # rotation_system starts every list with an in dart; each list turned
    # to start with an out dart gives the same map
    for g in maps_up_to(5, n_min=1):
        turned = {v: rot[1:] + rot[:1] for v, rot in kind_rotations(g).items()}
        assert map_from_rotations(turned) == g


# -- plane-graph documents -------------------------------------------------------

NAMES = st.sampled_from(["u", "v", "a", "b"])
DARTS = st.sampled_from(["a0", "a1", "b0", "b1", "c0", "c1"])
LINES = st.one_of(
    st.builds(lambda n, ds: f"vertex {n}: " + " ".join(ds),
              NAMES, st.lists(DARTS, max_size=4)),
    st.builds(lambda n, ds: f"edge {n}: " + " ".join(ds),
              NAMES, st.lists(DARTS, min_size=1, max_size=3)),
    st.sampled_from(["planegraph p", "", "# a comment", "vertex u a0",
                     "face f: a0", "edge c: c0 c1  # the edge c"]),
)
SUITE_DOCUMENTS = [plane_document(name, p.rotations)
                   for name, p in sorted(plane_suite().items())]


@st.composite
def plane_documents(draw):
    """Loose documents over a few names and darts, and the documents of
    the plane suite with their lines shuffled and one line dropped,
    repeated or added."""
    if draw(st.booleans()):
        return "\n".join(draw(st.lists(LINES, max_size=8)))
    lines = draw(st.permutations(draw(st.sampled_from(SUITE_DOCUMENTS)).splitlines()))
    change = draw(st.sampled_from(["none", "drop", "repeat", "add"]))
    i = draw(st.integers(0, len(lines) - 1))
    if change == "drop":
        del lines[i]
    elif change == "repeat":
        lines.insert(draw(st.integers(0, len(lines))), lines[i])
    elif change == "add":
        lines.insert(i, draw(LINES))
    return "\n".join(lines)


def edge_line(text, dart):
    """The number of the one edge line of text that names dart."""
    found = [line_no for line_no, line in _content_lines(text)
             if line.partition(" ")[0] == "edge"
             and dart in line.partition(":")[2].split()]
    assert len(found) == 1
    return found[0]


@given(plane_documents())
@example("vertex u: a0\nvertex v: a1\nedge a: a0 a1\nedge b: b0 b1")
@example("planegraph p\nedge c: c1 c0\nvertex u: a0\nedge a: a0 a1\n"
         "vertex v: a1\nedge b: b0 b1")
def test_parse_plane_graph_against_the_two_passes(text):
    new, old = outcome(parse_plane_graph, text), \
        outcome(ref_parse_plane_graph, text)
    if isinstance(old, EmbeddedGraph):
        assert isinstance(new, EmbeddedGraph)
        assert new.rotations == old.rotations
        assert new.vertices == old.vertices
    elif old[1].startswith("line 0: dart ") and old[1].endswith(
            " belongs to no rotation"):
        # the one change: a dart no rotation holds is reported at the
        # edge line that names it
        dart = old[1].split("'")[1]
        assert new == (DocumentError,
                       f"line {edge_line(text, dart)}: dart {dart!r} "
                       f"belongs to no rotation")
    else:
        assert new == old


# -- the dart numbering does not depend on the hash seed -------------------------

NUMBERING_SCRIPT = """
import sys
from altdimaps import EmbeddedGraph, parse_plane_graph
eg = EmbeddedGraph(["u", "v", "w"], {"u": [("a", 0), ("c", 1)],
                                     "v": [("b", 0), ("a", 1)],
                                     "w": [("c", 0), ("b", 1)]})
for g in (eg, parse_plane_graph(sys.stdin.read())):
    print(g.darts, g.rho, g.trace_faces(),
          [sorted(c) for c in g.components()])
"""


def test_dart_numbering_is_the_same_under_every_hash_seed():
    src = Path(altdimaps.__file__).parent.parent
    doc = plane_document("W5", wheel_rotations(5))
    outputs = []
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=os.pathsep.join(
                       [str(src), os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", NUMBERING_SCRIPT], input=doc,
                             env=env, capture_output=True, text=True,
                             timeout=60, check=True)
        outputs.append(run.stdout)
    assert outputs[0].count("\n") == 2
    assert outputs == outputs[:1] * 4
