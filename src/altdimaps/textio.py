"""Text formats for maps and plane graphs, plus DOT/JSON exports.

Map documents::

    map <name>
    edges a b c
    sigma_omega (a c b)
    sigma_omega2 (b a c)

Cycles use whitespace-separated labels inside parentheses; several
cycles may appear on one line; fixed points are omitted.  A label is
written as its ``str``, with whitespace, ``(``, ``)``, ``#`` and ``%``
percent-encoded (``('a', '+')`` becomes ``%28'a',%20'+'%29``), and read
back decoded, so every label reads back as one string (labels with one
``str``, such as ``1`` and ``'1'``, cannot be written).  Only the two
permutations sigma_omega and sigma_omega2 are stored; sigma_1 is always
derived, so a document can never hold an inconsistent triple.

Plane-graph documents::

    planegraph <name>
    vertex u: a0 b0
    vertex v: a1 b1
    edge a: a0 a1
    edge b: b0 b1

Each ``vertex`` line lists darts in clockwise rotation order; each
``edge`` line pairs exactly two darts.  Every dart must appear in
exactly one rotation and one edge.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Tuple
from urllib.parse import quote, unquote

from .core import AltDimap, build_map, classify_edge, map_stats
from .invariants import PlaneGraph


class DocumentError(ValueError):
    """A parse error carrying the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _content_lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


def _parse_cycles(line_no: int, body: str, known: set,
                  perm_name: str) -> List[Tuple[str, ...]]:
    cycles: List[Tuple[str, ...]] = []
    seen: set = set()
    rest = body.strip()
    while rest:
        if not rest.startswith("("):
            raise DocumentError(line_no, f"expected '(' in {perm_name} cycles, "
                                         f"got {rest[:10]!r}")
        close = rest.find(")")
        if close < 0:
            raise DocumentError(line_no, f"unclosed '(' in {perm_name} cycles")
        labels = _untoken(rest[1:close])
        rest = rest[close + 1:].strip()
        for lab in labels:
            if lab not in known:
                raise DocumentError(line_no, f"unknown edge label {lab!r} in "
                                             f"{perm_name}")
            if lab in seen:
                raise DocumentError(line_no, f"label {lab!r} repeated in "
                                             f"{perm_name}")
            seen.add(lab)
        if labels:
            cycles.append(tuple(labels))
    return cycles


def parse_map(text: str) -> AltDimap:
    """Parse a map document; returns the map (the name is cosmetic)."""
    edges: List[str] = None
    sw_cycles = sw2_cycles = None
    saw_name = False
    for line_no, line in _content_lines(text):
        key, _, body = line.partition(" ")
        if key == "map":
            if saw_name:
                raise DocumentError(line_no, "duplicate 'map' line")
            saw_name = True
        elif key == "edges":
            if edges is not None:
                raise DocumentError(line_no, "duplicate 'edges' line")
            edges = _untoken(body)
            if len(set(edges)) != len(edges):
                dup = next(e for e in edges if edges.count(e) > 1)
                raise DocumentError(line_no, f"duplicate edge label {dup!r}")
        elif key in ("sigma_omega", "sigma_omega2"):
            if edges is None:
                raise DocumentError(line_no, f"'{key}' before 'edges'")
            cycles = _parse_cycles(line_no, body, set(edges), key)
            if key == "sigma_omega":
                if sw_cycles is not None:
                    raise DocumentError(line_no, "duplicate 'sigma_omega' line")
                sw_cycles = cycles
            else:
                if sw2_cycles is not None:
                    raise DocumentError(line_no, "duplicate 'sigma_omega2' line")
                sw2_cycles = cycles
        else:
            raise DocumentError(line_no, f"unrecognized directive {key!r}")
    if edges is None:
        raise DocumentError(0, "missing 'edges' line")
    if sw_cycles is None:
        raise DocumentError(0, "missing 'sigma_omega' line")
    if sw2_cycles is None:
        raise DocumentError(0, "missing 'sigma_omega2' line")
    return build_map(edges, sw_cycles, sw2_cycles)


def _normal_cycles(perm) -> List[Tuple]:
    """All cycles of perm, each rotated to start at its least label (by
    str), sorted by that label (by str)."""
    norm = []
    for c in perm.cycles():
        i = c.index(min(c, key=str))
        norm.append(c[i:] + c[:i])
    norm.sort(key=lambda c: str(c[0]))
    return norm


_RESERVED = re.compile(r"[\s()#%]")


def _escape(match) -> str:
    return quote(match.group(), safe="")


def _tokens(g: AltDimap) -> Dict:
    """Each edge label as one document token (see the module docstring)."""
    tokens = {e: _RESERVED.sub(_escape, str(e)) for e in g.edges}
    if len(set(tokens.values())) < len(tokens):
        raise ValueError("two edge labels have the same str; cannot write them")
    return tokens


def _untoken(tokens: str) -> List[str]:
    """The labels written in a run of whitespace-separated tokens."""
    return [unquote(t) for t in tokens.split()]


def _cycles_text(perm, tokens: Dict) -> str:
    norm = [c for c in _normal_cycles(perm) if len(c) > 1]
    if not norm:
        return "()"
    return "".join("(" + " ".join(map(tokens.get, c)) + ")" for c in norm)


def serialize_map(g: AltDimap, name: str = "m") -> str:
    """Emit the canonical document: cycles sorted by least element,
    fixed points omitted, one permutation per line."""
    edges = sorted(g.edges, key=str)
    tokens = _tokens(g)
    return (f"map {name}\n"
            f"edges {' '.join(map(tokens.get, edges))}\n"
            f"sigma_omega {_cycles_text(g.sw, tokens)}\n"
            f"sigma_omega2 {_cycles_text(g.sw2, tokens)}\n")


def parse_plane_graph(text: str) -> PlaneGraph:
    """Parse a plane-graph document into a checked genus-0 embedding."""
    vertex_rot: Dict[str, List[str]] = {}
    edge_darts: Dict[str, Tuple[str, str]] = {}
    dart_home: Dict[str, int] = {}
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
            if name in edge_darts:
                raise DocumentError(line_no, f"duplicate edge {name!r}")
            if len(darts) != 2:
                raise DocumentError(line_no, f"edge {name!r} must pair exactly "
                                             f"two darts")
            edge_darts[name] = (darts[0], darts[1])
    dart_edge: Dict[str, Tuple[str, int]] = {}
    for e, (d0, d1) in edge_darts.items():
        for end, d in enumerate((d0, d1)):
            if d in dart_edge:
                raise DocumentError(0, f"dart {d!r} appears in two edges")
            dart_edge[d] = (e, end)
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
    return PlaneGraph.from_rotations(rotations)


# -- exports ---------------------------------------------------------------

def edge_class_summary(g: AltDimap, e) -> str:
    """Short human-readable tag for an edge's loop/semiloop status."""
    c = classify_edge(g, e)
    if c.is_ultraloop:
        return "ultraloop"
    loops = [n for n, b in (("1", c.is_1_loop), ("w", c.is_omega_loop),
                            ("w2", c.is_omega2_loop)) if b]
    if loops:
        return "+".join(loops) + "-loop"
    semis = [n for n, b in (("1", c.is_1_semiloop), ("w", c.is_omega_semiloop),
                            ("w2", c.is_omega2_semiloop)) if b]
    if semis:
        return "+".join(semis) + "-semiloop"
    return "ordinary"


def _vertex_ids(g: AltDimap) -> Dict[frozenset, str]:
    cycles = sorted((frozenset(c) for c in g.s1.cycles()),
                    key=lambda c: sorted(map(str, c)))
    return {c: f"v{i}" for i, c in enumerate(cycles)}


def _dot_string(text: str) -> str:
    """text as a quoted DOT string, with backslash and quote escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(g: AltDimap) -> str:
    """DOT digraph: one node per in-star, one arc per edge (tail to
    head), labelled with the edge and its classification."""
    vid = _vertex_ids(g)
    lines = ["digraph altdimap {"]
    for c in sorted(vid, key=lambda c: vid[c]):
        members = ",".join(sorted(map(str, c)))
        lines.append(f'  {vid[c]} [label={_dot_string(f"{{{members}}}")}];')
    for e in sorted(g.edges, key=str):
        t, h = vid[g.tail(e)], vid[g.head(e)]
        label = _dot_string(f"{e} ({edge_class_summary(g, e)})")
        lines.append(f"  {t} -> {h} [label={label}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(g: AltDimap) -> str:
    """Deterministic JSON: the permutation triple, the basic counts,
    and the per-edge classification table."""
    st = map_stats(g)

    def cyc(perm):
        return [[str(x) for x in c] for c in _normal_cycles(perm)]

    doc = {
        "edges": sorted(map(str, g.edges)),
        "sigma_omega": cyc(g.sw),
        "sigma_omega2": cyc(g.sw2),
        "sigma_1": cyc(g.s1),
        "stats": {
            "edges": st.n_edges,
            "vertices": st.n_vertices,
            "a_faces": st.n_a_faces,
            "c_faces": st.n_c_faces,
            "components": st.n_components,
            "genus": st.genus,
        },
        "classification": {str(e): edge_class_summary(g, e)
                           for e in sorted(g.edges, key=str)},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
