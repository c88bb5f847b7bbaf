"""Alternating dimaps as permutation triples.

An alternating dimap on an edge set E is a triple of permutations
(s1, sw, sw2) of E satisfying s1(sw(sw2(e))) = e for every edge e.
Cycles of s1 are in-stars (vertices), cycles of sw are anticlockwise
faces (a-faces) and cycles of sw2 are clockwise faces (c-faces).
A map is built from (sw, sw2); s1 is derived from the triple identity.
The kernels read the image triple (s1, sw, sw2), in which a trial map is
a rotation (see rotate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Dict, Hashable, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from .embedded import EmbeddedGraph, euler_genus
from .perm import Perm, _cycle_count, numbering, orbits

# The three reduction/loop types, as exponents of the rotation ω:
# 0 ↔ 1, 1 ↔ ω, 2 ↔ ω².
MU1, MUW, MUW2 = 0, 1, 2
ALL_MU = (MU1, MUW, MUW2)
MU_BY_NAME = {"1": MU1, "w": MUW, "w2": MUW2}


class InvariantError(AssertionError):
    """A failed internal check: a library bug, not bad input."""


# row j: the indices (−j, 1 − j, 2 − j) mod 3
_ROTATIONS = ((0, 1, 2), (2, 0, 1), (1, 2, 0))


def rotate(t: Sequence, j: int) -> tuple:
    """The triple of trial^j(G) from the triple t = (σ₁, σ_ω, σ_ω²) of G:
    (t[−j], t[1−j], t[2−j]), indices mod 3."""
    a, b, c = _ROTATIONS[j % 3]
    return t[a], t[b], t[c]


class AltDimap:
    """An alternating dimap, stored as (sw, sw2) over one edge numbering;
    s1 is derived on first use."""

    __slots__ = ("sw", "sw2", "_s1")

    def __init__(self, sigma_omega: Perm, sigma_omega2: Perm):
        if sigma_omega.labels != sigma_omega2.labels:
            raise ValueError("sigma_omega and sigma_omega2 act on different edge sets")
        self.sw = sigma_omega
        self.sw2 = sigma_omega2
        self._s1 = None

    @property
    def s1(self) -> Perm:
        """s1 = (sw ∘ sw2)⁻¹, so that s1(sw(sw2(e))) = e, made on first use:
        the one place a map derives a member of its triple."""
        if self._s1 is None:
            sw, sw2 = self.sw, self.sw2
            self._s1 = Perm._of(sw.labels, sw.index,
                                tuple(map(sw2.pre.__getitem__, sw.pre)),
                                tuple(map(sw.img.__getitem__, sw2.img)))
        return self._s1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AltDimap):
            return NotImplemented
        return self.sw == other.sw and self.sw2.img == other.sw2.img

    def __hash__(self) -> int:
        return hash((self.sw.labels, self.sw.img, self.sw2.img))

    def __repr__(self) -> str:
        return f"AltDimap(sw={self.sw!r}, sw2={self.sw2!r})"

    @property
    def triple(self) -> Tuple[Tuple[int, ...], ...]:
        """The image tuples of σ₁, σ_ω and σ_ω² over the edge numbers: the
        form the classification and reduction kernels read.  Each inverse
        is a product of the other two: σ_ω⁻¹ = σ_ω²∘σ₁, and so on."""
        return self.s1.img, self.sw.img, self.sw2.img

    @property
    def edges(self):
        """The edge set, as a set-like view in numbering order."""
        return self.sw.index.keys()

    @property
    def n_edges(self) -> int:
        return len(self.sw.labels)

    def number(self, e: Hashable) -> int:
        """The position of edge e in labels (ValueError if there is none)."""
        try:
            return self.sw.index[e]
        except (KeyError, TypeError):
            raise ValueError(f"edge {e!r} not in map") from None

    # -- incidence --------------------------------------------------------

    def vertex_of(self, e: Hashable) -> frozenset:
        """The in-star (s1-cycle) containing e, as a frozenset of edges
        (ValueError for an unknown edge)."""
        self.number(e)
        return frozenset(next(c for c in self.s1.cycles() if e in c))

    def head(self, e: Hashable) -> frozenset:
        return self.vertex_of(e)

    def tail(self, e: Hashable) -> frozenset:
        return self.vertex_of(self.sw.labels[self.sw.img[self.number(e)]])

    def vertices(self) -> List[Tuple[Hashable, ...]]:
        return self.s1.cycles()

    def orbits(self) -> List[List[int]]:
        """Edge numbers of the connected components (orbits of <sw, sw2>),
        each in breadth-first order under sw and sw2."""
        return orbits(self.sw.img, self.sw2.img)

    def components(self) -> List[frozenset]:
        """Edge sets of connected components (orbits of <sw, sw2>)."""
        labels = self.sw.labels
        return [frozenset(map(labels.__getitem__, c)) for c in self.orbits()]

    def restricted(self, edges: Iterable[Hashable]) -> "AltDimap":
        """Sub-dimap induced by a union of components."""
        edges = list(edges)  # read twice, so an iterator is read once here
        return AltDimap(self.sw.restricted(edges), self.sw2.restricted(edges))


EMPTY_MAP = AltDimap(Perm({}), Perm({}))


def build_map(edge_labels: Sequence[Hashable],
              sigma_omega_cycles: Iterable[Tuple[Hashable, ...]],
              sigma_omega2_cycles: Iterable[Tuple[Hashable, ...]]) -> AltDimap:
    """Build a map from labelled cycle notation; s1 is always derived."""
    labels, index = numbering(edge_labels)
    if len(labels) < len(edge_labels):
        dup = next(e for i, e in enumerate(edge_labels) if e in edge_labels[:i])
        raise ValueError(f"edge label {dup!r} repeated")
    return AltDimap(Perm._on_cycles(labels, index, sigma_omega_cycles),
                    Perm._on_cycles(labels, index, sigma_omega2_cycles))


def _image_map(sw: Sequence[int], sw2: Sequence[int],
               names: Sequence[Hashable],
               keep: Optional[Sequence[int]] = None) -> AltDimap:
    """The map (sw, sw2), two image tuples over numbers 0..n-1 with number
    k named names[k], on the numbers in keep (default all; keep must be
    closed under both), renumbered by perm.numbering of their names."""
    keep = range(len(names)) if keep is None else keep
    labels, index = numbering([names[k] for k in keep])
    new = list(map(index.get, names))  # old number -> new number

    def renamed(img: Sequence[int]) -> Perm:
        out = [0] * len(labels)
        for k in keep:
            out[new[k]] = new[img[k]]
        return Perm._of(labels, index, tuple(out))

    return AltDimap(renamed(sw), renamed(sw2))


@dataclass(frozen=True)
class MapStats:
    n_edges: int
    n_vertices: int
    n_a_faces: int
    n_c_faces: int
    n_faces: int
    n_components: int
    genus: int

    @property
    def euler(self) -> int:
        return self.n_vertices - self.n_edges + self.n_faces


def map_stats(g: AltDimap) -> MapStats:
    v, af, cf = map(_cycle_count, g.triple)
    e = g.n_edges
    k = len(g.orbits())
    return MapStats(e, v, af, cf, af + cf, k, euler_genus(v, e, af + cf, k))


def trial(g: AltDimap) -> AltDimap:
    """The trial correspondence G^ω: the roles cycle so that the vertices
    of G^ω are the c-faces of G, its a-faces are the in-stars and its
    c-faces are the a-faces — new triple (sw2, s1, sw).

    Edge ids are preserved; applying it three times is the identity.
    """
    return trial_power(g, 1)


def trial_power(g: AltDimap, j: int) -> AltDimap:
    """G^(ω^j): the triple of G rotated by j, built from its last two."""
    return AltDimap(*rotate((g.s1, g.sw, g.sw2), j)[1:])


def reflect(g: AltDimap) -> AltDimap:
    """Mirror image: reversing the surface orientation swaps clockwise and
    anticlockwise faces, giving the triple (s1⁻¹, sw2⁻¹, sw⁻¹)."""
    return AltDimap(g.sw2.inverse(), g.sw.inverse())


# -- the underlying embedded graph -------------------------------------------


def rotation_system(g: AltDimap) -> EmbeddedGraph:
    """The underlying undirected embedded graph.

    Each edge e contributes a head dart (e, 0) at its head vertex and a
    tail dart (e, 1) at its tail.  At a vertex with in-star cycle
    (e0, e1, ...) the clockwise dart order alternates
    [in(e0), out(sw⁻¹(e0)), in(e1), out(sw⁻¹(e1)), ...]: the out dart
    between in(e) and in(s1(e)) carries the left successor sw⁻¹(e).
    With this pairing the traced faces of the undirected embedding are
    exactly the a-faces (all-out boundaries) and c-faces (all-in
    boundaries) of the dimap.
    """
    rotations = {("v", cyc[0]): [d for e in cyc
                                 for d in ((e, 0), (g.sw.inv(e), 1))]
                 for cyc in g.s1.cycles()}
    return EmbeddedGraph(rotations.keys(), rotations)


def map_from_rotations(rotations: Mapping[Hashable, Sequence[Tuple[Hashable, str]]]) -> AltDimap:
    """Inverse of rotation_system: build a map from per-vertex clockwise
    dart orders, where each dart is (edge, 'in') or (edge, 'out') and the
    two kinds alternate around every vertex.  Both face permutations read
    consecutive darts: an out dart f after an in dart e gives sw(f) = e,
    and an in dart e after an out dart f gives sw2(e) = f."""
    before: Dict[str, Dict[Hashable, Hashable]] = {"in": {}, "out": {}}
    for v, rot in rotations.items():
        n = len(rot)
        if n % 2:
            raise ValueError(f"odd dart count at vertex {v!r}")
        if [k for _, k in rot] not in (["in", "out"] * (n // 2),
                                       ["out", "in"] * (n // 2)):
            raise ValueError(f"darts do not alternate 'in'/'out' at vertex {v!r}")
        # every in dart is checked before any out dart; read from the
        # second dart on, the out darts come in order from the first in dart
        for kind, first, twice in (("in", 0, "comes in"), ("out", 1, "goes out")):
            for i in range(first, first + n):
                e, k = rot[i % n]
                if k == kind:
                    if e in before[kind]:
                        raise ValueError(f"edge {e!r} {twice} twice")
                    before[kind][e] = rot[i - 1][0]
    if before["in"].keys() != before["out"].keys():
        raise ValueError("every edge needs one in dart and one out dart")
    return AltDimap(Perm(before["out"]), Perm(before["in"]))


# -- edge classification ------------------------------------------------------
#
# The kernels below read a map as the image triple t = (σ₁, σ_ω, σ_ω²) over
# its edge numbers.  A number fixed by all three is a one-edge component,
# so a kernel reads the same map whether or not such numbers are left in.


def _on_cycle(p: Sequence[int], e: int, target: int) -> bool:
    """Whether target lies on the p-cycle of e: one walk along p."""
    x = p[e]
    while x != target and x != e:
        x = p[x]
    return x == target


def _class_code(t: Sequence[Sequence[int]], e: int) -> int:
    """The class of edge number e of the map with image triple t, as an
    int that EdgeClass decodes: the loop bits (bit μ set for a μ-loop:
    t[μ] fixes e), or for a non-triloop 8 plus the semiloop bits (bit μ
    set for a μ-semiloop).  This is the one semiloop walk.

    A 1-semiloop is a standard loop, head(e) = tail(e): σ_ω(e) lies on
    the σ₁-cycle of e.  The μ-semiloops of G are the 1-semiloops of the
    trial map G^(ω^−μ), so bit μ is that one walk in its triple (p, q, r)
    = rotate(t, −μ): q(e) on the p-cycle of e.  The trial law (the
    μ-semiloops of G are the μω-semiloops of G^ω) thus holds by
    construction: e is an ω-semiloop when σ_ω²(e) lies on its a-face and
    an ω²-semiloop when σ₁(e) lies on its c-face.  Two loop bits (3, 5 or
    6) break the triple identity, which EdgeClass reports."""
    s1, sw, sw2 = t
    code = (s1[e] == e) | (sw[e] == e) << 1 | (sw2[e] == e) << 2
    if code:
        return code
    return (8 | _on_cycle(s1, e, sw[e]) | _on_cycle(sw, e, sw2[e]) << 1
            | _on_cycle(sw2, e, s1[e]) << 2)


class EdgeClass:
    """Loop/semiloop classification of an edge, decoded from its class
    code (_class_code; classify_edge makes one).  A triloop's semiloop bits
    follow from its loop bits: an ultraloop is a semiloop of all three
    types, a proper μ-loop a ν-semiloop exactly for ν ≠ μ."""

    __slots__ = ("is_1_loop", "is_omega_loop", "is_omega2_loop",
                 "is_ultraloop", "is_triloop", "_semis")

    def __init__(self, code: int):
        if code in (3, 5, 6):  # any two loop bits force the third
            raise InvariantError("triple identity violated")
        bits = code & 1 > 0, code & 2 > 0, code & 4 > 0
        self.is_ultraloop, self.is_triloop = code == 7, code < 8
        self.is_1_loop, self.is_omega_loop, self.is_omega2_loop = (
            bits if self.is_triloop else (False,) * 3)
        self._semis = (tuple(self.is_ultraloop or not b for b in bits)
                       if self.is_triloop else bits)

    def is_loop(self, mu: int) -> bool:
        return (self.is_1_loop, self.is_omega_loop, self.is_omega2_loop)[mu]

    def is_semiloop(self, mu: int) -> bool:
        return self._semis[mu]

    is_1_semiloop = property(lambda self: self._semis[MU1])
    is_standard_loop = is_1_semiloop
    is_omega_semiloop = property(lambda self: self._semis[MUW])
    is_omega2_semiloop = property(lambda self: self._semis[MUW2])

    def is_proper_loop(self, mu: int) -> bool:
        return self.is_loop(mu) and not self.is_ultraloop

    def is_proper_semiloop(self, mu: int) -> bool:
        return not self.is_triloop and self.is_semiloop(mu)


def classify_edge(g: AltDimap, e: Hashable) -> EdgeClass:
    """The EdgeClass of edge e of G (ValueError for an unknown edge)."""
    return EdgeClass(_class_code(g.triple, g.number(e)))
