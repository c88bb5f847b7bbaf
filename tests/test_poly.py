"""The sparse polynomial class and its one- and two-variable forms."""

import pytest

from altdimaps.poly import Poly1, Poly2

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
