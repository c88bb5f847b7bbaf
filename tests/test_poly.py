"""The sparse polynomial class and its one- and two-variable forms, and
the packed-int ring that the recursions accumulate in."""

import random
from math import comb

import pytest

from altdimaps import (T_a, T_c, T_i, alt_a, alt_c, alt_i, invariants,
                       multigraph, plane_multigraph, tutte_poly)
from altdimaps.core import InvariantError
from altdimaps.poly import Poly1, Poly2, _PackedRing

from conftest import plane_suite

# (coefficients, str) pairs; the strings are the ones the separate Poly1 and
# Poly2 classes printed before they became one class, so the CLI output and
# the recursion digests do not move
POLY1_STR = [
    ({}, "0"), ({0: 1}, "1"), ({0: -1}, "-1"), ({0: 5}, "5"), ({1: 1}, "x"),
    ({1: -1}, "-x"), ({1: 2}, "2*x"), ({2: 3, 1: -1, 0: 7}, "3*x^2 - x + 7"),
    ({3: -2, 0: -4}, "-2*x^3 - 4"), ({5: 1, 2: -1, 1: 1}, "x^5 - x^2 + x"),
]
POLY2_STR = [
    ({}, "0"), ({(0, 0): 1}, "1"), ({(0, 0): -3}, "-3"), ({(1, 0): 1}, "x"),
    ({(0, 1): -1}, "-y"),
    ({(2, 0): 1, (1, 1): -2, (0, 2): 1}, "x^2 - 2*x*y + y^2"),
    ({(1, 0): 1, (0, 1): 1, (0, 0): -1}, "x + y - 1"),
    ({(3, 1): -4, (0, 4): 2, (2, 2): 1, (0, 0): 9},
     "-4*x^3*y + x^2*y^2 + 2*y^4 + 9"),
    ({(1, 2): 1, (2, 1): 1}, "x^2*y + x*y^2"),
    ({(0, 3): -1, (3, 0): -1, (1, 0): 6}, "-x^3 - y^3 + 6*x"),
]


def test_str_is_unchanged():
    for cls, cases in ((Poly1, POLY1_STR), (Poly2, POLY2_STR)):
        for coeffs, want in cases:
            assert str(cls(coeffs)) == repr(cls(coeffs)) == want


def test_poly1_takes_int_degrees():
    assert Poly1({2: 3, 0: 1}).coeffs == {(2,): 3, (0,): 1}
    assert Poly1({(2,): 3, (0,): 1}) == Poly1({2: 3, 0: 1})
    assert Poly1({1: 0}) == Poly1.zero()


def test_constructors_and_ring_operations():
    x, y = Poly2.var(0), Poly2.var(1)
    assert Poly1.var() == Poly1({1: 1})
    assert (x + y) * (x - y) == Poly2({(2, 0): 1, (0, 2): -1})
    assert x * Poly2.one() == x and x + Poly2.zero() == x
    assert Poly2.const(3) - Poly2.const(3) == Poly2.zero()
    assert (Poly1.var() + Poly1.one()) * Poly1.var() == Poly1({2: 1, 1: 1})
    assert hash(x + y) == hash(y + x)


def test_diagonal():
    assert Poly1({1: 2}) == Poly2({(1, 0): 1, (0, 1): 1}).diagonal()
    assert Poly2({(1, 1): 1, (2, 0): -1}).diagonal() == Poly1.zero()


def test_poly1_never_equals_poly2():
    for p1 in (Poly1.zero(), Poly1.one(), Poly1.var()):
        for p2 in (Poly2.zero(), Poly2.one(), Poly2.var(0)):
            assert p1 != p2 and p2 != p1
            assert not p1 == p2


def test_evaluate_takes_one_value_per_variable():
    p = Poly2({(2, 1): 3, (0, 0): -1})
    assert p.evaluate(2, 5) == 59
    assert Poly1({3: 1, 0: 2}).evaluate(-2) == -6
    assert Poly2.zero().evaluate(1, 1) == 0
    for values in ((), (2,), (2, 5, 7)):
        with pytest.raises(TypeError):
            p.evaluate(*values)
    with pytest.raises(TypeError):
        Poly1.var().evaluate(1, 2)


# -- the packed ring --------------------------------------------------------------

def pack(p, n):
    """p packed as _PackedRing(type(p), n) documents it: B = D = n + 1,
    the coefficient of x^i·y^j (x^i over Poly1) at bit (i·D + j)·B."""
    d = n + 1
    return sum(c << (sum(i * d ** (len(k) - 1 - v) for v, i in enumerate(k)) * d)
               for k, c in p.coeffs.items())


def random_poly(cls, n, rng):
    """A random polynomial over cls with exponents at most n and
    coefficients in 0..2^n, as a sweep of n reductions can reach."""
    return cls({tuple(rng.randint(0, n) for _ in cls.names):
                rng.randint(0, 2 ** n) for _ in range(rng.randint(0, 8))})


@pytest.mark.parametrize("cls", [Poly1, Poly2])
def test_packed_round_trip(cls):
    rng = random.Random(20261019)
    for n in (0, 1, 2, 5, 13, 40):
        ring = _PackedRing(cls, n)
        for _ in range(20):
            p, q = random_poly(cls, n, rng), random_poly(cls, n, rng)
            assert ring.unpack(pack(p, n)) == p
            # a sum stays in range while its coefficients stay at most
            # 2^n, as a sweep's do
            if all(c <= 2 ** n for c in (p + q).coeffs.values()):
                assert ring.unpack(pack(p, n) + pack(q, n)) == p + q


def test_packed_monomials_are_shifts():
    n = 6
    for p in (Poly1({2: 3, 0: 1}), Poly2({(1, 2): 3, (0, 0): 1})):
        cls = type(p)
        ring = _PackedRing(cls, n)
        assert ring.unpack(ring.one) == cls.one()
        assert ring.unpack(ring.zero) == cls.zero()
        for which in range(len(cls.names)):
            assert ring.unpack(ring.var(which) * pack(p, n)) == \
                cls.var(which) * p


def test_packed_boundaries():
    n = 9
    two = _PackedRing(Poly2, n)
    x, y = two.var(0), two.var(1)
    xn = yn = two.one
    for _ in range(n):
        xn, yn = x * xn, y * yn
    assert two.unpack(xn) == Poly2({(n, 0): 1})
    assert two.unpack(yn) == Poly2({(0, n): 1})
    # (x + y)^n: the coefficients sum to 2^n, the number of paths
    acc = two.one
    for _ in range(n):
        acc = x * acc + y * acc
    assert two.unpack(acc) == Poly2({(i, n - i): comb(n, i) for i in range(n + 1)})
    # the coefficient 2^n fills its slot, even the top one, x^n·y^n
    top = 2 ** n
    for _ in range(n):
        top = x * (y * top)
    assert two.unpack(top) == Poly2({(n, n): 2 ** n})
    assert two.unpack(2 ** n) == Poly2.const(2 ** n)
    one = _PackedRing(Poly1, n)
    acc = 2 ** n
    for _ in range(n):
        acc = one.var() * acc
    assert one.unpack(acc) == Poly1({n: 2 ** n})


def test_packed_terms_on_both_sides_of_a_split():
    # unpack splits an int longer than 4,096 bits at slot boundaries: every
    # slot full (2^n or 2^n − 1 on alternate slots) meets every split, and
    # a slot of B > 4,096 bits is read whole
    for n in (63, 100, 200):
        p = Poly1({i: 2 ** n - i % 2 for i in range(n + 1)})
        assert _PackedRing(Poly1, n).unpack(pack(p, n)) == p, n
    n = 4096
    p = Poly1({0: 1, 1: 2 ** n, n: 2 ** n - 1})
    assert _PackedRing(Poly1, n).unpack(pack(p, n)) == p


def test_packed_rejects_an_over_wide_int():
    n = 4
    for cls, slots in ((Poly1, n + 1), (Poly2, (n + 1) ** 2)):
        ring = _PackedRing(cls, n)
        widest = (1 << (slots * (n + 1))) - 1
        assert sum(ring.unpack(widest).coeffs.values()) == slots * (2 ** (n + 1) - 1)
        for bad in (widest + 1, 1 << (slots * (n + 1) + 7), -1):
            with pytest.raises(InvariantError):
                ring.unpack(bad)


class PolyRing:
    """_PackedRing's protocol over the sparse Poly classes themselves: the
    path the recursions took before they packed their sums."""

    made = 0

    def __init__(self, cls, n):
        PolyRing.made += 1
        self.cls, self.one, self.zero = cls, cls.one(), cls.zero()

    def var(self, which=0):
        return self.cls.var(which)

    def unpack(self, acc):
        return acc


@pytest.mark.parametrize("name", sorted(plane_suite()))
def test_packed_sums_match_the_poly_path(name, monkeypatch):
    p = plane_suite()[name]
    runs = [lambda: tutte_poly(plane_multigraph(p)),
            lambda: T_c(alt_c(p)), lambda: T_a(alt_a(p)),
            lambda: T_i(alt_i(p, 0)), lambda: T_i(alt_i(p, 1))]
    packed = [run() for run in runs]
    monkeypatch.setattr(invariants, "_PackedRing", PolyRing)
    monkeypatch.setattr(multigraph, "_PackedRing", PolyRing)
    made = PolyRing.made
    assert [run() for run in runs] == packed
    assert PolyRing.made == made + len(runs)
