"""Text formats for maps and plane graphs, plus DOT/JSON exports.

Map documents::

    map <name>
    edges a b c
    sigma_omega (a c b)
    sigma_omega2 (b a c)

Each directive appears at most once; ``edges``, ``sigma_omega`` and
``sigma_omega2`` are required, and the two sigma lines follow ``edges``.
Cycles use whitespace-separated labels inside parentheses; several
cycles may appear on one line; fixed points are omitted.  A label is
written as its ``str`` (or, if it is not a str but prints a frozenset,
as perm._canonical_repr writes it, every frozenset's members in order),
with whitespace, ``(``, ``)``, ``#`` and ``%`` percent-encoded
(``('a', '+')`` becomes ``%28'a',%20'+'%29``), and read back decoded,
so every label reads back as one string (labels with one ``str``, such
as ``1`` and ``'1'``, and a label whose ``str`` is empty cannot be
written).  The map name is written the same way, as one token.  Only
the two permutations sigma_omega and sigma_omega2 are stored; sigma_1
is always derived, so a document can never hold an inconsistent
triple.

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

from .core import MU_BY_NAME, AltDimap, build_map, classify_edge, map_stats
from .embedded import EmbeddedGraph
from .perm import _canonical_repr


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


_MAP_DIRECTIVES = ("map", "edges", "sigma_omega", "sigma_omega2")


def parse_map(text: str) -> AltDimap:
    """Parse a map document; returns the map (the name is cosmetic)."""
    found: Dict[str, object] = {}  # directive -> its body, read
    for line_no, line in _content_lines(text):
        key, _, body = line.partition(" ")
        if key not in _MAP_DIRECTIVES:
            raise DocumentError(line_no, f"unrecognized directive {key!r}")
        if key.startswith("sigma"):
            if "edges" not in found:
                raise DocumentError(line_no, f"'{key}' before 'edges'")
            body = _parse_cycles(line_no, body, set(found["edges"]), key)
        if key in found:
            raise DocumentError(line_no, f"duplicate {key!r} line")
        if key == "edges":
            body = _untoken(body)
            if len(set(body)) != len(body):
                dup = next(e for e in body if body.count(e) > 1)
                raise DocumentError(line_no, f"duplicate edge label {dup!r}")
        found[key] = body
    for key in _MAP_DIRECTIVES[1:]:
        if key not in found:
            raise DocumentError(0, f"missing {key!r} line")
    return build_map(*map(found.get, _MAP_DIRECTIVES[1:]))


def _normal_cycles(perm, texts: Dict) -> List[Tuple]:
    """All cycles of perm, each rotated to start at its least label (by
    its text in texts), sorted by that label (by text)."""
    key = texts.__getitem__
    norm = []
    for c in perm.cycles():
        i = c.index(min(c, key=key))
        norm.append(c[i:] + c[:i])
    norm.sort(key=lambda c: texts[c[0]])
    return norm


_RESERVED = re.compile(r"[\s()#%]")


def _escape(match) -> str:
    return quote(match.group(), safe="")


def _text(x) -> str:
    """The text of a label or a map name, which every writer prints and
    sorts by: its str, or perm._canonical_repr of an x that is not a str
    but prints a frozenset, whose str follows its insertion history."""
    t = str(x)
    return _canonical_repr(x) if "frozenset(" in t and not isinstance(x, str) else t


def _token(text: str) -> str:
    """A text as one document token (see the module docstring)."""
    return _RESERVED.sub(_escape, text)


def _tokens(g: AltDimap) -> Tuple[Dict, Dict]:
    """Each edge label's text (_text) and that text as one document
    token."""
    texts = {e: _text(e) for e in g.edges}
    tokens = {e: _token(t) for e, t in texts.items()}
    if "" in tokens.values():
        raise ValueError("an edge label's str is empty; cannot write it")
    if len(set(tokens.values())) < len(tokens):
        raise ValueError("two edge labels have the same str; cannot write them")
    return texts, tokens


def _untoken(tokens: str) -> List[str]:
    """The labels written in a run of whitespace-separated tokens."""
    return [unquote(t) for t in tokens.split()]


def _cycles_text(perm, texts: Dict, tokens: Dict) -> str:
    norm = [c for c in _normal_cycles(perm, texts) if len(c) > 1]
    if not norm:
        return "()"
    return "".join("(" + " ".join(map(tokens.get, c)) + ")" for c in norm)


def serialize_map(g: AltDimap, name: str = "m") -> str:
    """Emit the canonical document: cycles sorted by least element,
    fixed points omitted, one permutation per line.  The name is written
    by the labels' rule (_text), as one token."""
    texts, tokens = _tokens(g)
    edges = sorted(g.edges, key=texts.__getitem__)
    return (f"map {_token(_text(name))}\n"
            f"edges {' '.join(map(tokens.get, edges))}\n"
            f"sigma_omega {_cycles_text(g.sw, texts, tokens)}\n"
            f"sigma_omega2 {_cycles_text(g.sw2, texts, tokens)}\n")


def parse_plane_graph(text: str) -> EmbeddedGraph:
    """Parse a plane-graph document into an embedding, refusing (with
    ValueError) one of positive total genus: the one genus-0 check on
    the way to the Tutte identity of the alt images."""
    vertex_rot: Dict[str, List[str]] = {}
    dart_edge: Dict[str, Tuple[str, int, int]] = {}  # dart -> (edge, end, line)
    dart_home: Dict[str, int] = {}  # dart -> the line of its rotation
    names: set = set()  # (key, name)
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
        if (key, name) in names:
            raise DocumentError(line_no, f"duplicate {key} {name!r}")
        names.add((key, name))
        darts = darts_txt.split()
        if key == "vertex":
            for d in darts:
                if d in dart_home:
                    raise DocumentError(line_no, f"dart {d!r} appears in two "
                                                 f"rotations")
                dart_home[d] = line_no
            vertex_rot[name] = darts
        else:
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
                dart_edge[d] = (name, end, line_no)
    for d, line_no in dart_home.items():
        if d not in dart_edge:
            raise DocumentError(line_no, f"dart {d!r} belongs to no edge")
    missing = sorted(dart_edge.keys() - dart_home.keys())
    if missing:
        raise DocumentError(dart_edge[missing[0]][2], f"dart {missing[0]!r} "
                                                      f"belongs to no rotation")
    eg = EmbeddedGraph(vertex_rot, {v: [dart_edge[d][:2] for d in darts]
                                    for v, darts in vertex_rot.items()})
    gam = eg.genus()
    if gam:
        raise ValueError(f"total genus {gam}; not plane")
    return eg


# -- exports ---------------------------------------------------------------

def edge_class_summary(g: AltDimap, e) -> str:
    """Short human-readable tag for an edge's loop/semiloop status."""
    c = classify_edge(g, e)
    if c.is_ultraloop:
        return "ultraloop"
    for kind, test in (("loop", c.is_loop), ("semiloop", c.is_semiloop)):
        names = [n for n, mu in MU_BY_NAME.items() if test(mu)]
        if names:
            return "+".join(names) + "-" + kind
    return "ordinary"


def _vertex_ids(g: AltDimap, texts: Dict) -> Dict[frozenset, str]:
    cycles = sorted((frozenset(c) for c in g.s1.cycles()),
                    key=lambda c: sorted(map(texts.get, c)))
    return {c: f"v{i}" for i, c in enumerate(cycles)}


def _dot_string(text: str) -> str:
    """text as a quoted DOT string, with backslash and quote escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(g: AltDimap) -> str:
    """DOT digraph: one node per in-star, one arc per edge (tail to
    head), labelled with the edge and its classification.  Raises
    ValueError if two edge labels have the same str."""
    texts = _tokens(g)[0]
    vid = _vertex_ids(g, texts)
    lines = ["digraph altdimap {"]
    for c in sorted(vid, key=lambda c: vid[c]):
        members = ",".join(sorted(map(texts.get, c)))
        lines.append(f'  {vid[c]} [label={_dot_string(f"{{{members}}}")}];')
    for e in sorted(g.edges, key=texts.__getitem__):
        t, h = vid[g.tail(e)], vid[g.head(e)]
        label = _dot_string(f"{texts[e]} ({edge_class_summary(g, e)})")
        lines.append(f"  {t} -> {h} [label={label}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(g: AltDimap) -> str:
    """Deterministic JSON: the permutation triple, the basic counts,
    and the per-edge classification table.  Raises ValueError if two
    edge labels have the same str."""
    texts = _tokens(g)[0]
    st = map_stats(g)

    def cyc(perm):
        return [list(map(texts.get, c)) for c in _normal_cycles(perm, texts)]

    doc = {
        "edges": sorted(texts.values()),
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
        "classification": {texts[e]: edge_class_summary(g, e)
                           for e in sorted(g.edges, key=texts.__getitem__)},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
