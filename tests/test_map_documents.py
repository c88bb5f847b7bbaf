"""Map documents against the reader they replace: parse_map by one
directive table against the hand-written branches; the cycle order of
Perm.cycles; and a digest of the writers (serialize_map, export_json,
export_dot) over every map with at most 6 edges under three labelings."""

import hashlib
import random
from typing import List

from hypothesis import example, given, strategies as st

from altdimaps import (AltDimap, Perm, build_map, export_dot, export_json,
                       parse_map, serialize_map)
from altdimaps.textio import (DocumentError, _content_lines, _parse_cycles,
                              _untoken)

from conftest import labelings, maps_up_to, random_maps


# -- the body parse_map had before it read one directive table -------------------

def ref_parse_map(text: str) -> AltDimap:
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


def outcome(text):
    """What parse_map(text) gives under a reader: the labels and both image
    tuples of the map, or the type, text and line of the error raised."""
    def read(parse):
        try:
            g = parse(text)
        except ValueError as err:
            return type(err), str(err), getattr(err, "line_no", None)
        return g.sw.labels, g.sw.img, g.sw2.img
    return read(parse_map), read(ref_parse_map)


# -- generated documents ------------------------------------------------------------

LABELS = st.lists(st.sampled_from(["a", "b", "c", "d", "a%20b"]), max_size=4)
CYCLES = st.lists(LABELS.map(lambda c: "(" + " ".join(c) + ")"), max_size=3)
LINES = st.one_of(
    st.builds(lambda labels: " ".join(["edges", *labels]), LABELS),
    st.builds(lambda key, cycles: " ".join([key, *cycles]),
              st.sampled_from(["sigma_omega", "sigma_omega2"]), CYCLES),
    st.sampled_from(["map m", "map", "", "# a comment", "edges a b  # two",
                     "sigma_omega (a b", "sigma_omega2 a)", "sigma_omega (a)x",
                     "sigma_three ()", "edge a", "map a b c"]),
)
SERIALIZED = [serialize_map(g, "m") for g in maps_up_to(4)]


@st.composite
def map_documents(draw):
    """Loose documents of a few directive lines, and the documents of the
    maps with at most 4 edges with their lines shuffled and one line
    dropped, repeated or added."""
    if draw(st.booleans()):
        return "\n".join(draw(st.lists(LINES, max_size=6)))
    lines = draw(st.permutations(draw(st.sampled_from(SERIALIZED)).splitlines()))
    change = draw(st.sampled_from(["none", "drop", "repeat", "add"]))
    i = draw(st.integers(0, len(lines) - 1))
    if change == "drop":
        del lines[i]
    elif change == "repeat":
        lines.insert(draw(st.integers(0, len(lines))), lines[i])
    elif change == "add":
        lines.insert(i, draw(LINES))
    return "\n".join(lines)


@given(map_documents())
# a sigma line: 'before edges', then its cycle errors, then 'duplicate'
@example("sigma_omega (a a)\nsigma_omega (a a)")
@example("edges a\nsigma_omega (a a)\nsigma_omega (a a)")
@example("edges a\nsigma_omega ()\nsigma_omega (b)")
@example("edges a\nsigma_omega2 ()\nsigma_omega2 ()")
# the edges line: 'duplicate', then a repeated label
@example("edges a\nedges b b")
@example("edges a a\nedges a a")
@example("map m\nmap m")
# missing lines in the order edges, sigma_omega, sigma_omega2
@example("map m")
@example("edges a")
@example("edges a\nsigma_omega2 ()")
@example("edges a b\nsigma_omega2 (a b)\nsigma_omega (b a)\nmap m")
def test_parse_map_against_the_directive_branches(text):
    new, old = outcome(text)
    assert new == old


@given(random_maps(max_n=4))
def test_serialized_documents_read_alike(g):
    new, old = outcome(serialize_map(g))
    assert new == old and not isinstance(new[0], type)


# -- Perm.cycles ------------------------------------------------------------------

def test_cycles_follow_the_numbering():
    # labels that do not compare, and ints whose sorted and repr orders differ
    for mapping, cycles in [
            ({0: "a", "a": 0}, [("a", 0)]),
            ({0: 0, "a": "a"}, [("a",), (0,)]),
            ({2: 10, 10: 2, 3: 3}, [(10, 2), (3,)]),
            ({9: 12, 12: 11, 11: 9, 10: 10}, [(10,), (11, 9, 12)])]:
        p = Perm(mapping)
        assert p.cycles() == cycles
        starts = [p.index[c[0]] for c in cycles]
        assert starts == sorted(starts)
        assert all(p.index[c[0]] == min(map(p.index.get, c)) for c in cycles)


# -- the writers, digested ------------------------------------------------------

# recorded from the writers before Perm.cycles walked in numbering order
WRITERS_DIGEST = \
    "52828edcf54c7715433d7ff26f4105b5bd42bf1b7c1d1a64622af09969797bfa"


def test_writers_digest():
    rng = random.Random(19)
    h = hashlib.sha256()
    count = 0
    for g in maps_up_to(6):
        for m in labelings(g, rng):
            for write in (serialize_map, export_json, export_dot):
                h.update(write(m).encode())
            count += 1
    assert count == 3 * 1122
    assert h.hexdigest() == WRITERS_DIGEST
