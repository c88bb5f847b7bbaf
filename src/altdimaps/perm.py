"""Finite permutations on arbitrary hashable points, stored as int tuples
over a numbering of the points that depends on the point set alone, so
that equality and hashing are tuple operations."""

from __future__ import annotations

from itertools import chain
from typing import (Dict, Hashable, Iterable, Iterator, List, Mapping,
                    Sequence, Tuple)

Point = Hashable


def _canonical_repr(x) -> str:
    """repr(x), with the members of every frozenset in x in sorted order (a
    frozenset's repr follows its insertion history).  Raises ValueError for
    a label of any other kind that prints a frozenset."""
    if isinstance(x, frozenset):
        members = ", ".join(sorted(map(_canonical_repr, x)))
        return type(x).__name__ + "({" + members + "})" if x else repr(x)
    if isinstance(x, tuple):  # a named tuple is keyed by its type's name
        name = "" if type(x) is tuple else type(x).__name__
        inner = ", ".join(map(_canonical_repr, x))
        return name + "(" + inner + "," * (len(x) == 1) + ")"
    r = repr(x)
    if "frozenset(" in r and not isinstance(x, str):
        raise ValueError(f"label {r} holds a frozenset in no canonical order")
    return r


def _int_arg(name: str, value, least: int, most: int = None) -> int:
    """value, if it is an int (not a bool) in least..most (no upper bound
    when most is None): the library's one check of an integer argument.
    ValueError naming the argument and its bounds otherwise."""
    if (isinstance(value, int) and not isinstance(value, bool)
            and least <= value and (most is None or value <= most)):
        return value
    bounds = f"of at least {least}" if most is None else f"in {least}..{most}"
    raise ValueError(f"{name} must be an int {bounds}, got {value!r}")


def numbering(points: Iterable[Point]) -> Tuple[tuple, Dict[Point, int]]:
    """The distinct points sorted by repr (labels), and the index that maps
    each to its position.  Labels holding frozensets sort by a repr with
    every frozenset's members in order; distinct labels must print
    differently (ValueError otherwise), as distinct strs and ints do."""
    points = set(points)
    # repr is _canonical_repr on strs and ints, and on tuples of them
    if {str, int}.issuperset(map(type, points)) or (
            {tuple}.issuperset(map(type, points))
            and {str, int}.issuperset(map(type, chain.from_iterable(points)))):
        labels = tuple(sorted(points, key=repr))
    else:
        keyed = dict(zip(map(_canonical_repr, points), points))
        if len(keyed) < len(points):
            raise ValueError("two distinct labels print alike")
        labels = tuple(map(keyed.__getitem__, sorted(keyed)))
    return labels, {x: i for i, x in enumerate(labels)}


def inverse(img: Sequence[int]) -> Tuple[int, ...]:
    """The image tuple of the inverse of the permutation with images img."""
    pre = [0] * len(img)
    for i, j in enumerate(img):
        pre[j] = i
    return tuple(pre)


def _cycle_count(img: Sequence[int]) -> int:
    """The number of cycles, fixed points included, of the permutation of
    0..n-1 with images img."""
    seen = bytearray(len(img))
    count = 0
    for i in range(len(img)):
        if not seen[i]:
            count += 1
            j = i
            while not seen[j]:
                seen[j] = 1
                j = img[j]
    return count


def orbits(*imgs: Sequence[int]) -> List[List[int]]:
    """The orbits of ⟨imgs⟩, permutations of 0..n-1 given as image tuples,
    each in breadth-first order under the images alone (a finite orbit
    is closed under them); the orbits of one image are its cycles."""
    seen = [False] * len(imgs[0])
    out = []
    for root in range(len(seen)):
        if not seen[root]:
            seen[root] = True
            out.append([root])
            for x in out[-1]:  # the orbit grows as the walk goes
                for img in imgs:
                    if not seen[img[x]]:
                        seen[img[x]] = True
                        out[-1].append(img[x])
    return out


class Perm:
    """A bijection on a finite set of points.

    The domain is explicit: every point the permutation acts on is one of
    its labels, including fixed points.  Point labels[i] is numbered i
    (index[labels[i]] == i), and img[i] / pre[i] are the numbers of its
    image / preimage.
    """

    __slots__ = ("labels", "index", "img", "_pre")

    def __init__(self, mapping: Mapping[Point, Point]):
        labels, index = numbering(mapping)
        try:
            img = tuple([index[mapping[x]] for x in labels])
        except KeyError:
            raise ValueError("image differs from domain; "
                             "not a permutation") from None
        if len(set(img)) < len(img):
            raise ValueError("not injective; not a permutation")
        self.labels, self.index, self.img, self._pre = labels, index, img, None

    @classmethod
    def _of(cls, labels: tuple, index: Dict[Point, int], img: Tuple[int, ...],
            pre: Tuple[int, ...] = None) -> "Perm":
        """A permutation from its numbering and images, unchecked."""
        p = cls.__new__(cls)
        p.labels, p.index, p.img, p._pre = labels, index, img, pre
        return p

    @classmethod
    def _on_cycles(cls, labels: tuple, index: Dict[Point, int],
                   cycles: Iterable[Tuple[Point, ...]]) -> "Perm":
        """The permutation with the given disjoint cycles over the numbering
        (labels, index) of its points; points not mentioned are fixed."""
        moved: Dict[Point, Point] = {}
        count = 0
        for cyc in map(tuple, cycles):
            moved.update(zip(cyc, cyc[1:] + cyc[:1]))
            count += len(cyc)
        if not moved.keys() <= index.keys():
            x = next(iter(moved.keys() - index.keys()))
            raise ValueError(f"cycle point {x!r} not in domain")
        if len(moved) < count:
            raise ValueError("a cycle point named twice")
        get = moved.get
        return cls._of(labels, index, tuple([index[get(x, x)] for x in labels]))

    @property
    def pre(self) -> Tuple[int, ...]:
        if self._pre is None:
            self._pre = inverse(self.img)
        return self._pre

    def _number(self, x: Point) -> int:
        """The number of point x (ValueError if x, hashable or not, is not
        in the domain)."""
        try:
            return self.index[x]
        except (KeyError, TypeError):
            raise ValueError(f"point {x!r} not in domain") from None

    def __call__(self, x: Point) -> Point:
        return self.labels[self.img[self._number(x)]]

    def inv(self, x: Point) -> Point:
        """Preimage of x."""
        return self.labels[self.pre[self._number(x)]]

    def inverse(self) -> "Perm":
        return Perm._of(self.labels, self.index, self.pre, self.img)

    def mapping(self) -> Dict[Point, Point]:
        return dict(zip(self.labels, map(self.labels.__getitem__, self.img)))

    def cycles(self) -> List[Tuple[Point, ...]]:
        """Disjoint cycles (including fixed points), each starting at its
        first point in the numbering, listed in numbering order of those
        starting points."""
        labels, img = self.labels, self.img
        seen = [False] * len(img)
        out: List[Tuple[Point, ...]] = []
        for i in range(len(img)):
            if seen[i]:
                continue
            cyc = [labels[i]]
            j = img[i]
            while j != i:
                seen[j] = True
                cyc.append(labels[j])
                j = img[j]
            out.append(tuple(cyc))
        return out

    def restricted(self, points: Iterable[Point]) -> "Perm":
        """Restriction to a union of whole cycles (ValueError otherwise)."""
        sub = {x: self(x) for x in points}
        if not sub.keys() >= set(sub.values()):
            raise ValueError("restriction does not respect cycles")
        return Perm(sub)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Perm):
            return NotImplemented
        return self.img == other.img and self.labels == other.labels

    def __hash__(self) -> int:
        return hash((self.labels, self.img))

    def __iter__(self) -> Iterator[Point]:
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:
        cyc = "".join(
            "(" + " ".join(map(str, c)) + ")" for c in self.cycles() if len(c) > 1
        )
        return f"Perm[{cyc or 'id'}]"
