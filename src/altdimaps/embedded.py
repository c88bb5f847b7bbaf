"""Undirected graphs with an orientable embedding (rotation systems).

A dart (e, i), i = 0 or 1, is one end of edge e.  The embedding is a
clockwise cyclic order of darts at each vertex: over the darts numbered
as first met in the rotations, taken in the order of the vertices
argument, the combinatorial map (ρ, α) of Lando and Zvonkin, with ρ the
clockwise successor and α: (e, i) ↦ (e, 1 − i).
Faces are the cycles of ρ∘α and components the orbits of ⟨ρ, α⟩.
Vertices are explicit, so deleting edges can leave isolated vertices and
those vertices still count towards components and face counts.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Sequence, Tuple

from .perm import orbits

Dart = Tuple[Hashable, int]  # (edge id, end index 0/1)


class EmbeddedGraph:
    def __init__(self, vertices: Iterable[Hashable],
                 rotations: Mapping[Hashable, Sequence[Dart]]):
        order = dict.fromkeys(vertices)
        for v in rotations:
            if v not in order:
                raise ValueError(f"rotation given at {v!r}, which is not a vertex")
        self.vertices = frozenset(order)
        self.rotations: Dict[Hashable, Tuple[Dart, ...]] = {
            v: tuple(rotations.get(v, ())) for v in order
        }
        at: Dict[Dart, Hashable] = {}
        rho: List[int] = []
        for v, rot in self.rotations.items():
            first = len(at)
            for d in rot:
                if not isinstance(d, tuple) or len(d) != 2 or d[1] not in (0, 1):
                    raise ValueError(f"dart {d!r} is not an (edge, 0 | 1) pair")
                if d in at:
                    raise ValueError(f"dart {d!r} appears twice")
                at[d] = v
            rho += range(first + 1, len(at))
            rho += [first] * bool(rot)
        number = {d: k for k, d in enumerate(at)}
        try:
            alpha = [number[(e, 1 - i)] for e, i in at]
        except KeyError as missing:
            raise ValueError(f"edge {missing.args[0][0]!r} needs exactly "
                             f"darts (e,0),(e,1)") from None
        self.dart_vertex = at
        self.darts: Tuple[Dart, ...] = tuple(at)
        self.rho, self.alpha = tuple(rho), tuple(alpha)
        self.edges = frozenset(e for e, _ in self.darts)

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
        return EmbeddedGraph(self.rotations, rot)

    # -- topology --------------------------------------------------------

    def components(self) -> List[frozenset]:
        """Vertex sets of connected components: the orbits of ⟨ρ, α⟩, and
        each vertex without darts on its own."""
        at, darts = self.dart_vertex, self.darts
        return ([frozenset([at[darts[k]] for k in orbit])
                 for orbit in orbits(self.rho, self.alpha)]
                + [frozenset([v]) for v, rot in self.rotations.items() if not rot])

    def trace_faces(self) -> List[Tuple[Dart, ...]]:
        """Face boundary orbits: the cycles of ρ∘α (next dart = rotation
        successor of the mate).  A vertex with no darts bounds one face,
        reported as an empty orbit."""
        darts, phi = self.darts, tuple(map(self.rho.__getitem__, self.alpha))
        return ([tuple(map(darts.__getitem__, cycle)) for cycle in orbits(phi)]
                + [() for rot in self.rotations.values() if not rot])

    def k_minus_gamma(self) -> int:
        """Components minus total genus."""
        return len(self.components()) - self.genus()

    def genus(self) -> int:
        """The total genus: the sum of the components' genera."""
        return euler_genus(len(self.vertices), len(self.edges),
                           len(self.trace_faces()), len(self.components()))


def euler_genus(v: int, e: int, f: int, k: int) -> int:
    """The total genus γ of an embedding with v vertices, e edges, f faces
    and k components, by Euler's relation v − e + f = 2(k − γ) (Lando and
    Zvonkin 2004); ValueError for counts that no embedding has."""
    chi = v - e + f
    if chi % 2:
        raise ValueError("odd Euler characteristic; not an embedding")
    if k < chi // 2:
        raise ValueError("negative genus; not an embedding")
    return k - chi // 2
