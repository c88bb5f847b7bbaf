"""Canonical forms, exhaustive enumeration and a catalogue of named maps."""

from __future__ import annotations

from itertools import permutations
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

from .core import AltDimap, EMPTY_MAP, _image_map, build_map, reflect
from .perm import inverse, orbits


# -- canonical codes -----------------------------------------------------------

def _component_code(sw: Sequence[int], sw2: Sequence[int],
                    swi: Sequence[int], sw2i: Sequence[int],
                    comp: Sequence[int], pos: List[int]) -> bytes:
    """The least code of one component over all roots.

    A root's code is its size byte, then pos[σ_ω(x)] and then pos[σ_ω²(x)]
    for the edges x in the order its breadth-first walk numbers them.  The
    byte after the size is pos[σ_ω(root)]: 0 when σ_ω fixes the root, 1
    otherwise.  So when σ_ω fixes an edge of the component, only such
    roots are walked; the rule is exact, since every other root's code is
    greater at that byte.  The σ_ω part of a code is known as the walk
    goes, so a root is given up as soon as that part exceeds the best
    code's; every root that attains the least code is walked to the end.

    pos holds -1 at every edge number on entry and again on return: each
    walk numbers the edges it meets in pos and then resets them.
    """
    best = b""
    size = len(comp)
    for root in [x for x in comp if sw[x] == x] or comp:
        pos[root] = 0
        order = [root]
        push = order.append
        code = [size]
        tied = bool(best)  # whether code is a prefix of best
        for x in order:  # order grows as the walk meets new edges
            y = sw[x]
            c = pos[y]
            if c < 0:
                c = pos[y] = len(order)
                push(y)
            if tied:
                b = best[len(code)]
                if c != b:
                    if c > b:
                        break
                    tied = False
            code.append(c)
            y = swi[x]
            if pos[y] < 0:
                pos[y] = len(order)
                push(y)
            y = sw2[x]
            if pos[y] < 0:
                pos[y] = len(order)
                push(y)
            y = sw2i[x]
            if pos[y] < 0:
                pos[y] = len(order)
                push(y)
        else:
            full = bytes(code + [pos[sw2[x]] for x in order])
            if not best or full < best:
                best = full
        for x in order:
            pos[x] = -1
    return best


def _code(sw: Sequence[int], sw2: Sequence[int], swi: Sequence[int],
          sw2i: Sequence[int], comps: List[List[int]]) -> bytes:
    """The code of the components comps (lists of edge numbers) of the map
    with images sw, sw2 and their inverses swi, sw2i: the component codes,
    sorted and concatenated.  Numbers outside comps are never read."""
    if any(len(c) > 255 for c in comps):
        raise ValueError("canonical codes support at most 255 edges "
                         "per component")
    pos = [-1] * len(sw)  # shared by the walks, reset after each
    return b"".join(sorted([_component_code(sw, sw2, swi, sw2i, c, pos)
                            for c in comps]))


def canonical_code(g: AltDimap) -> bytes:
    """Isomorphism-invariant byte code.

    Each component is relabelled by first-visit order of a breadth-first
    traversal applying the generators (sw, sw⁻¹, sw2, sw2⁻¹) in that fixed
    order; the lexicographically least code over all roots represents the
    component, and component codes are sorted and concatenated.  Where
    σ_ω fixes an edge of a component, only its fixed edges are tried as
    roots; the others cannot attain the least code (see _component_code).
    The code depends on no edge number, so live_code gives a minor's code
    from its image triple without a map.  Maps with more than 255 edges in
    a component are not supported.
    """
    return _code(g.sw.img, g.sw2.img, g.sw.pre, g.sw2.pre, g.orbits())


def live_code(t: Sequence[Sequence[int]], live: int) -> bytes:
    """canonical_code of the live part of the image triple t = (σ₁, σ_ω,
    σ_ω²), live a bitmask of its numbers, every other number fixed by all
    three: the code of the components whose first number is live (a live
    ultraloop is one, a dead number is not).  The inverses come from the
    triple identity: σ_ω⁻¹ = σ_ω²∘σ₁ and σ_ω²⁻¹ = σ₁∘σ_ω."""
    s1, sw, sw2 = t
    return _code(sw, sw2, [sw2[x] for x in s1], [s1[x] for x in sw],
                 [c for c in orbits(sw, sw2) if live >> c[0] & 1])


def isomorphic(a: AltDimap, b: AltDimap) -> bool:
    return canonical_code(a) == canonical_code(b)


# -- exhaustive enumeration ----------------------------------------------------

# The enumeration tries n! candidates per cycle type of n: 7,920 pairs at
# 6 edges, 75,600 at 7 and 1.1·10^7 at 9.
ENUMERATION_MAX_EDGES = 6


def _partitions(n: int):
    def rec(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - part, part):
                yield (part,) + rest
    yield from rec(n, n)


def _perm_of_cycle_type(parts: Sequence[int]) -> Tuple[int, ...]:
    out = []
    base = 0
    for p in parts:
        out.extend(list(range(base + 1, base + p)) + [base])
        base += p
    return tuple(out)


def _first_per_code(sw: Tuple[int, ...],
                    sw2s: Iterable[Tuple[int, ...]]) -> Dict[bytes, tuple]:
    """The first σ_ω² of sw2s met with each canonical code of the map
    (sw, σ_ω²), both image tuples over 0..n-1, keyed by that code."""
    swi = inverse(sw)
    out: Dict[bytes, tuple] = {}
    for sw2 in sw2s:
        out.setdefault(_code(sw, sw2, swi, inverse(sw2), orbits(sw, sw2)),
                       sw2)
    return out


def _coded_maps(n: int) -> List[Tuple[bytes, AltDimap]]:
    """The (canonical code, map) pairs of enumerate_maps(n), sorted by
    code."""
    if n < 0:
        raise ValueError(f"edge count must be nonnegative, not {n}")
    if n > ENUMERATION_MAX_EDGES:
        raise ValueError(f"enumeration capped at {ENUMERATION_MAX_EDGES} edges")
    # relabelling conjugates sw, so no code is met under two cycle types
    out = {code: (sw, sw2) for sw in map(_perm_of_cycle_type, _partitions(n))
           for code, sw2 in _first_per_code(sw, permutations(range(n))).items()}
    return [(code, _image_map(*out[code], range(n))) for code in sorted(out)]


def enumerate_maps(n: int) -> List[AltDimap]:
    """All alternating dimaps with exactly n edges, up to isomorphism,
    in the order of their canonical codes.

    Every pair (sw, sw2) of permutations of n points is an alternating
    dimap; duplicates are removed by canonical code.  Since relabelling
    acts by simultaneous conjugation, sw may be fixed to one representative
    per cycle type.  The representative of a code is the first candidate
    met with it.  n is at most ENUMERATION_MAX_EDGES.
    """
    return [g for _, g in _coded_maps(n)]


# -- loop attachment and named maps --------------------------------------------

def _fresh(g: AltDimap, label: Hashable) -> Hashable:
    if label not in g.edges:
        return label
    i = 0
    while ("e", i) in g.edges:
        i += 1
    return ("e", i)


def _next_in_star(g: AltDimap, e: Hashable) -> Hashable:
    """σ₁(e), the edge after e in its in-star (ValueError for an unknown
    edge)."""
    return g.sw.labels[g.s1.img[g.number(e)]]


def add_omega_loop(g: AltDimap, anchor: Hashable, label: Hashable) -> AltDimap:
    """Attach a new ω-loop at the head of anchor, inserted into the in-star
    directly after anchor: the loop is a 1-cycle of σ_ω, spliced into the
    c-face of x = σ₁(anchor) right after x."""
    x = _next_in_star(g, anchor)
    label = _fresh(g, label)
    c_faces = [f if x not in f else
               f[:f.index(x) + 1] + (label,) + f[f.index(x) + 1:]
               for f in g.sw2.cycles()]
    return build_map([*g.edges, label], g.sw.cycles(), c_faces)


def add_omega2_loop(g: AltDimap, anchor: Hashable, label: Hashable) -> AltDimap:
    """Attach a new ω²-loop at the head of anchor, inserted into the
    in-star directly after anchor: the mirror image of an ω-loop."""
    return reflect(add_omega_loop(reflect(g), _next_in_star(g, anchor), label))


def ultraloop() -> AltDimap:
    return build_map([0], [], [])


def free_loops(k: int) -> AltDimap:
    """U_k: k disjoint ultraloops."""
    if k < 0:
        raise ValueError(f"loop count must be nonnegative, not {k}")
    return build_map(range(k), [], [])


def loop_star_1(k: int) -> AltDimap:
    """L_{k,1}: a directed k-circuit of 1-loops (k >= 2): one a-face
    through all edges, with the c-face its reverse."""
    if k < 2:
        raise ValueError("L_{k,1} needs k >= 2")
    cyc = tuple(range(k))
    return build_map(range(k), [cyc], [cyc[::-1]])


def loop_star_omega(k: int) -> AltDimap:
    """L_{k,ω}: k ω-loops at one vertex (k >= 2)."""
    if k < 2:
        raise ValueError("L_{k,ω} needs k >= 2")
    return build_map(range(k), [], [tuple(range(k))])


def loop_star_omega2(k: int) -> AltDimap:
    """L_{k,ω²}: k ω²-loops at one vertex (k >= 2)."""
    if k < 2:
        raise ValueError("L_{k,ω²} needs k >= 2")
    return build_map(range(k), [tuple(range(k))], [])


def posies(k: int) -> List[AltDimap]:
    """The posies of genus k (one vertex, 2k+1 edges, one a-face, one
    c-face), up to isomorphism and mirror image.  Mirror pairs are
    represented by the member with the smaller canonical code."""
    if k < 0:
        raise ValueError(f"genus must be nonnegative, not {k}")
    n = 2 * k + 1
    sw = tuple(range(1, n)) + (0,)  # one a-face forces sw to an n-cycle
    swi = inverse(sw)
    # sw2 ranges over the n-cycles (0, *rest) that leave one vertex: those
    # whose σ₁⁻¹ = σ_ω∘σ_ω² is one cycle too
    cycles = (tuple(map((rest + (0,)).__getitem__, inverse((0,) + rest)))
              for rest in permutations(range(1, n)))
    found = _first_per_code(sw, (sw2 for sw2 in cycles
                                 if len(orbits([sw[y] for y in sw2])) == 1))
    # every map of a class has the same mirror (σ_ω²⁻¹, σ_ω⁻¹) code; the
    # one cycle of sw is the one component of both
    return [_image_map(sw, sw2, range(n)) for code, sw2 in sorted(found.items())
            if _code(inverse(sw2), swi, sw2, sw, orbits(sw)) >= code]


def posy(k: int, variant: int = 0) -> AltDimap:
    ps = posies(k)
    if not 0 <= variant < len(ps):
        raise ValueError(f"genus-{k} posies have variants 0..{len(ps) - 1}")
    return ps[variant]


def tricircuit(p: int, q: int, r: int) -> AltDimap:
    """A tricircuit: a directed circuit of p 1-loop edges with q ω-loops
    and r ω²-loops attached at one of its vertices, the two loop kinds on
    opposite sides of the circuit.  Degenerate cases: p = 0 gives a pure
    loop star (only one loop kind can share a vertex); a single edge of
    any kind is an ultraloop."""
    if p < 0 or q < 0 or r < 0:
        raise ValueError("tricircuit parameters must be nonnegative")
    if p == 0 and q == 0 and r == 0:
        return EMPTY_MAP
    if p == 0:
        if q > 0 and r > 0:
            raise ValueError("a vertex cannot carry both ω- and ω²-loops")
        if q + r == 1:
            return ultraloop()
        return loop_star_omega(q) if q else loop_star_omega2(r)
    # σ_ω is one a-face: the circuit backwards with the ω²-loops c spliced
    # in between edges 0 and p - 1; σ_ω² is one c-face: the circuit
    # forwards with the ω-loops w spliced in between p - 1 and 0.  Each
    # loop is a 1-face of the other permutation, so the two kinds lie on
    # opposite sides of the circuit at its glue vertex.
    circuit = list(range(p))
    w = [("w", i) for i in range(q)]
    c = [("c", j) for j in range(r)]
    return build_map(circuit + w + c, [c[:1] + circuit[::-1] + c[:0:-1]],
                     [w[:1] + circuit + w[:0:-1]])

