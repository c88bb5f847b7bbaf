"""Binary functions: complex-valued set functions with a three-fold
transform calculus.

A binary function assigns a complex value to every subset of a ground
set of m elements, stored as a dense vector of length 2^m (bit i of the
index corresponds to ground element i, least significant bit first).
The mu-transform applies the m-th Kronecker power of a 2x2 matrix
M(mu) without ever materialising it, four coordinates at a time as a
16x16 Kronecker block on matrix multiplication; the [mu]-minor collapses one
coordinate by the row (1, lambda) and renormalises.  At the third root
of unity the transform has order three, M(ω)³ = I, mirroring the
triality operator on alternating dimaps.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Hashable, Sequence, Tuple

import numpy as np

from .perm import _canonical_repr, numbering

SQRT2 = math.sqrt(2.0)

#: Primitive third root of unity, the transform parameter of order 3.
OMEGA = cmath.exp(2j * cmath.pi / 3)

_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class BinFn:
    """A complex-valued function on subsets of an ordered ground set.

    ``values[idx]`` is the value on the subset whose characteristic
    bits are ``idx`` (bit i set <=> ground[i] in the subset).  It is a
    read-only view: a complex128 array passed in is shared, not copied,
    and stays writeable for its owner.  Two functions are equal when
    their grounds and values are exactly equal; they are not hashable.
    """

    ground: Tuple[Hashable, ...]
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128).view()
        if vals.shape != (2 ** len(self.ground),):
            raise ValueError(
                f"need {2 ** len(self.ground)} values for a ground set "
                f"of size {len(self.ground)}, got shape {vals.shape}")
        if len(set(self.ground)) != len(self.ground):
            raise ValueError("ground labels must be distinct")
        object.__setattr__(self, "ground", tuple(self.ground))
        object.__setattr__(self, "values", vals)
        vals.setflags(write=False)

    def __eq__(self, other):
        if not isinstance(other, BinFn):
            return NotImplemented
        return (self.ground == other.ground
                and np.array_equal(self.values, other.values))

    __hash__ = None

    @property
    def m(self) -> int:
        return len(self.ground)

    @property
    def is_normalized(self) -> bool:
        return abs(self.values[0] - 1.0) <= _EPS

    def value(self, subset: Sequence[Hashable]) -> complex:
        idx = 0
        for lab in subset:
            if lab not in self.ground:
                raise ValueError(f"unknown ground element {lab!r}")
            idx |= 1 << self.ground.index(lab)
        return complex(self.values[idx])


def trivial_bf() -> BinFn:
    """The unique normalized binary function on the empty ground set."""
    return BinFn((), np.ones(1))


def mu_matrix(mu: complex) -> np.ndarray:
    """The 2x2 transform kernel M(mu); M(1) = I and M(-1) is the
    normalized Hadamard matrix.  A mu whose kernel is not finite
    (nan, inf, or so large that it overflows) is a ValueError."""
    mu = complex(mu)
    scale = 2 * SQRT2
    diag = ((SQRT2 + 1 + (SQRT2 - 1) * mu) / scale,
            (SQRT2 - 1 + (SQRT2 + 1) * mu) / scale)
    off = (1 - mu) / scale
    if not all(map(cmath.isfinite, diag + (off,))):
        raise ValueError(f"M(mu) is not finite at mu={mu}")
    return np.array([[diag[0], off], [off, diag[1]]], dtype=np.complex128)


#: Coordinates per Kronecker block of transform: M(mu)^{(x)4} is 16x16.
_BLOCK = 4


def transform(f: BinFn, mu: complex) -> BinFn:
    """Apply the m-fold Kronecker power of M(mu) to f, without a
    2^m x 2^m matrix (about 4 * m * 2^m complex multiply-adds).

    The coordinates are taken four at a time: the 16x16 block
    M(mu)^{(x)4} multiplies the values as a (rows, 16) or a batch of
    (16, 2^i) matrices, so the work runs in BLAS matrix products.  The
    last block takes the m mod 4 coordinates left over.

    The result is generally unnormalized.
    """
    mat = mu_matrix(mu)
    m = f.m
    v = f.values
    # The blocks write into two buffers in turn, so a transform allocates
    # twice whatever m is; a fresh array per block (five at m = 20) raised
    # the peak resident size of repeated m = 20 transforms by 1-15 MiB.
    bufs = [np.empty(2 ** m, dtype=np.complex128) for _ in range(2)]
    for n, i in enumerate(range(0, m, _BLOCK)):
        k = min(_BLOCK, m - i)
        blk = mat
        for _ in range(k - 1):
            blk = np.kron(blk, mat)
        # the block's index runs over bits i..i+k-1 (stride 2^i)
        shape = (2 ** (m - i - k), 2 ** k, 2 ** i)
        out = bufs[n % 2]
        if i == 0:
            np.matmul(v.reshape(shape[:2]), blk.T, out=out.reshape(shape[:2]))
        else:
            np.matmul(blk, v.reshape(shape), out=out.reshape(shape))
        v = out
    return BinFn(f.ground, v)


def lambda_of(mu: complex) -> complex:
    """The collapse weight lambda = (1+mu) / (sqrt2+1 - (sqrt2-1)mu)."""
    mu = complex(mu)
    denom = SQRT2 + 1 - (SQRT2 - 1) * mu
    if not cmath.isfinite(mu) or abs(denom) <= _EPS:
        raise ValueError(f"lambda undefined at mu={mu}")
    return (1 + mu) / denom


def bf_minor(f: BinFn, e, mu: complex) -> BinFn:
    """Collapse the coordinate of ground element ``e`` by the row
    (1, lambda(mu)) and renormalize the empty-set entry to 1.

    ``e`` may be a ground label or an integer position.
    """
    if isinstance(e, int) and not isinstance(e, bool) and e not in f.ground:
        pos = e
        if not 0 <= pos < f.m:
            raise ValueError(f"element position {e} out of range")
    else:
        try:
            pos = f.ground.index(e)
        except ValueError:
            raise ValueError(f"unknown ground element {e!r}") from None
    lam = lambda_of(mu)
    v = f.values.reshape(2 ** (f.m - 1 - pos), 2, 2 ** pos)
    out = (v[:, 0, :] + lam * v[:, 1, :]).reshape(-1)
    c = out[0]
    if abs(c) <= _EPS:
        raise ValueError(
            "minor is not normalizable: empty-set entry vanished")
    ground = f.ground[:pos] + f.ground[pos + 1:]
    return BinFn(ground, out / c)


def tensor(f: BinFn, g: BinFn) -> BinFn:
    """Tensor product: ground sets concatenate (f's elements keep the
    low bit positions) and values multiply coordinate-wise."""
    overlap = set(f.ground) & set(g.ground)
    if overlap:
        shared = map(_canonical_repr, numbering(overlap)[0])
        raise ValueError(f"ground sets overlap: {', '.join(shared)}")
    return BinFn(f.ground + g.ground, np.kron(g.values, f.values))


def ultraloop_bf(k: int, labels: Sequence[Hashable] = None) -> BinFn:
    """The k-fold tensor power of the single-element function
    (1, sqrt2 - 1): value (sqrt2-1)^|X| on each subset X."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if labels is None:
        labels = tuple(range(k))
    elif len(labels) != k:
        raise ValueError("need exactly k labels")
    idx = np.arange(2 ** k)
    sizes = np.array([bin(i).count("1") for i in idx])
    return BinFn(tuple(labels), (SQRT2 - 1) ** sizes)


def indicator_from_gf2(rows: Sequence[Sequence[int]], m: int) -> BinFn:
    """Indicator of the GF(2) rowspace of a 0/1 matrix whose column j
    corresponds to ground element j, labelled j.  Always includes the
    empty set."""
    masks = []
    for row in rows:
        if len(row) != m:
            raise ValueError("row length must equal m")
        mask = 0
        for j, bit in enumerate(row):
            if bit not in (0, 1):
                raise ValueError("matrix entries must be 0 or 1")
            mask |= bit << j
        masks.append(mask)
    space = {0}
    for mask in masks:
        space |= {s ^ mask for s in space}
    vals = np.zeros(2 ** m, dtype=np.complex128)
    for s in space:
        vals[s] = 1.0
    return BinFn(tuple(range(m)), vals)


def proportional_eq(f: BinFn, g: BinFn, tol: float = 1e-9) -> bool:
    """True iff f = c*g for some complex c, within tolerance.  The
    scale c is read off from the largest-magnitude entry of g."""
    if f.m != g.m:
        raise ValueError("ground sets differ in size")
    k = int(np.argmax(np.abs(g.values)))
    gmax = abs(g.values[k])
    if gmax <= _EPS:
        raise ValueError("cannot test proportionality against the zero function")
    c = f.values[k] / g.values[k]
    fmax = float(np.max(np.abs(f.values)))
    if abs(c) <= _EPS:
        return fmax <= tol
    err = float(np.max(np.abs(f.values - c * g.values)))
    return err <= tol * max(1.0, fmax)


def solve_uniform_reduction(u: BinFn) -> BinFn:
    """Construct the unique normalized f, on one more ground element (the
    least non-negative int not in u's ground set), whose [mu]-minor at
    every position and every mu in {1, omega, omega^2} is proportional
    to u.

    Any such f must factor as (1, t) tensored onto u; for a nonempty
    ground set the uniform-reduction product formula forces t to equal
    u's value on the first singleton, while for the trivial u the
    scalar is pinned by requiring f to be fixed by the order-3
    transform (the eigenvalue-1 eigenvector of M(omega), giving
    t = sqrt2 - 1).  The candidate is then verified by direct minor
    evaluation; a ValueError reports infeasibility.
    """
    if not u.is_normalized:
        raise ValueError("u must be normalized")
    new_label = 0
    while new_label in u.ground:
        new_label += 1
    t = u.values[1] if u.m >= 1 else (SQRT2 - 1)
    f = tensor(BinFn((new_label,), np.array([1.0, t])), u)
    for pos in range(f.m):
        for mu in (1, OMEGA, OMEGA ** 2):
            reduced = bf_minor(f, f.ground[pos], mu)
            if not proportional_eq(reduced, u):
                raise ValueError(
                    f"no uniformly-reducing extension exists: candidate "
                    f"fails at position {pos}, mu={mu}")
    return f
