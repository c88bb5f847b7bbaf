"""Undirected graphs with an orientable embedding (rotation systems).

A dart is one end of an edge; every edge has exactly two darts.  The
embedding is given by a clockwise cyclic order of darts at each vertex.
Vertices are explicit, so deleting edges can leave isolated vertices and
those vertices still count towards components and face counts.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Sequence, Tuple

Dart = Tuple[Hashable, int]  # (edge id, end index 0/1)


class EmbeddedGraph:
    def __init__(self, vertices: Iterable[Hashable],
                 rotations: Mapping[Hashable, Sequence[Dart]]):
        self.vertices = frozenset(vertices)
        for v in rotations:
            if v not in self.vertices:
                raise ValueError(f"rotation given at {v!r}, which is not a vertex")
        self.rotations: Dict[Hashable, Tuple[Dart, ...]] = {
            v: tuple(rotations.get(v, ())) for v in self.vertices
        }
        at: Dict[Dart, Hashable] = {}
        ends: Dict[Hashable, List[int]] = {}
        for v, rot in self.rotations.items():
            for d in rot:
                if d in at:
                    raise ValueError(f"dart {d!r} appears twice")
                at[d] = v
                ends.setdefault(d[0], []).append(d[1])
        for e, idx in ends.items():
            if sorted(idx) != [0, 1]:
                raise ValueError(f"edge {e!r} needs exactly darts (e,0),(e,1)")
        self.dart_vertex = at
        self.edges = frozenset(ends)

    # -- basic accessors -------------------------------------------------

    @staticmethod
    def mate(d: Dart) -> Dart:
        return (d[0], 1 - d[1])

    def endpoints(self, e: Hashable) -> Tuple[Hashable, Hashable]:
        return self.dart_vertex[(e, 0)], self.dart_vertex[(e, 1)]

    def delete_edges(self, drop: Iterable[Hashable]) -> "EmbeddedGraph":
        """Remove edges, keeping all vertices (possibly now isolated)."""
        drop = set(drop)
        rot = {v: tuple(d for d in r if d[0] not in drop)
               for v, r in self.rotations.items()}
        return EmbeddedGraph(self.vertices, rot)

    # -- topology --------------------------------------------------------

    def components(self) -> List[frozenset]:
        """Vertex sets of connected components (isolated vertices included)."""
        adj: Dict[Hashable, set] = {v: set() for v in self.vertices}
        for e in self.edges:
            u, v = self.endpoints(e)
            adj[u].add(v)
            adj[v].add(u)
        seen = set()
        comps = []
        for v0 in self.vertices:
            if v0 in seen:
                continue
            stack, comp = [v0], set()
            while stack:
                v = stack.pop()
                if v in comp:
                    continue
                comp.add(v)
                stack.extend(adj[v] - comp)
            seen |= comp
            comps.append(frozenset(comp))
        return comps

    def trace_faces(self) -> List[Tuple[Dart, ...]]:
        """Face boundary orbits of the embedding (next dart = rotation
        successor of the mate).  A vertex with no darts bounds one face,
        reported as an empty orbit."""
        succ: Dict[Dart, Dart] = {}
        for rot in self.rotations.values():
            n = len(rot)
            for i, d in enumerate(rot):
                succ[d] = rot[(i + 1) % n]
        faces: List[Tuple[Dart, ...]] = []
        seen = set()
        for d0 in succ:
            if d0 in seen:
                continue
            face = []
            d = d0
            while True:
                face.append(d)
                seen.add(d)
                d = succ[self.mate(d)]
                if d == d0:
                    break
            faces.append(tuple(face))
        for v in self.vertices:
            if not self.rotations[v]:
                faces.append(())
        return faces

    def face_count(self) -> int:
        return len(self.trace_faces())

    def k_minus_gamma(self) -> int:
        """Components minus total genus, via Euler's relation
        V - E + F = 2(k - γ)."""
        chi = len(self.vertices) - len(self.edges) + self.face_count()
        if chi % 2:
            raise ValueError("odd Euler characteristic; invalid embedding")
        return chi // 2

    def genus(self) -> int:
        """The total genus: the sum of the components' genera."""
        g = len(self.components()) - self.k_minus_gamma()
        if g < 0:
            raise ValueError("negative genus; invalid embedding")
        return g
