"""Differential tests of the recursion engine on int-tuple states.

The engine's state is the image triple (σ₁, σ_ω, σ_ω²).  It classifies
edges by core._class_code, which EdgeClass decodes, and reduces with
the kernel minors._reduce, which keeps the input numbering.  These tests
hold it against an eager map-level classification, its semiloop bits
from the global definition (conftest.semiloop_pair), and the map-level
engine that it replaced: the eight bits on every edge of every map with
1-6 edges, and T_c, T_i and extended_eval on every six-edge map in the
default order.
"""

from dataclasses import dataclass
from fractions import Fraction as Q

import pytest

from altdimaps import (ExtendedParams, SIMPLE_FAMILIES, T_c, T_i,
                       classify_edge, extended_eval, invariants, reduce_map,
                       simple_tutte_eval)
from altdimaps.catalog import free_loops, posy
from altdimaps.core import (MU1, MUW, MUW2, EdgeClass, InvariantError,
                            _class_code)
from altdimaps.poly import Poly1

from conftest import maps_up_to, semiloop_pair

BITS = ("is_1_loop", "is_omega_loop", "is_omega2_loop", "is_ultraloop",
        "is_standard_loop", "is_1_semiloop", "is_omega_semiloop",
        "is_omega2_semiloop")


@dataclass(frozen=True)
class EagerClass:
    """The frozen classification that EdgeClass replaced: every bit read
    off the labelled permutations."""

    is_1_loop: bool
    is_omega_loop: bool
    is_omega2_loop: bool
    is_ultraloop: bool
    is_standard_loop: bool
    is_1_semiloop: bool
    is_omega_semiloop: bool
    is_omega2_semiloop: bool

    @property
    def is_triloop(self) -> bool:
        return self.is_1_loop or self.is_omega_loop or self.is_omega2_loop

    def is_loop(self, mu: int) -> bool:
        return (self.is_1_loop, self.is_omega_loop, self.is_omega2_loop)[mu]

    def is_semiloop(self, mu: int) -> bool:
        return (self.is_1_semiloop, self.is_omega_semiloop,
                self.is_omega2_semiloop)[mu]

    def is_proper_loop(self, mu: int) -> bool:
        return self.is_loop(mu) and not self.is_ultraloop

    def is_proper_semiloop(self, mu: int) -> bool:
        return self.is_semiloop(mu) and not self.is_triloop


def eager_classify(g, e) -> EagerClass:
    """Every bit at once, from the labelled permutations of G."""
    l1, lw, lw2 = g.s1(e) == e, g.sw(e) == e, g.sw2(e) == e
    if (l1 + lw + lw2) >= 2 and not (l1 and lw and lw2):
        raise InvariantError("triple identity violated")
    star = next(c for c in g.s1.cycles() if e in c)
    standard = g.sw(e) in star  # head(e) == tail(e)

    return EagerClass(l1, lw, lw2, l1 and lw and lw2, standard, standard,
                      semiloop_pair(g, e, g.sw2(e)),
                      semiloop_pair(g, e, g.sw.inv(e)))


def map_level_recurse(g, order, cases, one, zero, name):
    """The replaced engine: every state an AltDimap, renumbered by
    reduce_map and classified eagerly; memo keyed by the tuples alone."""
    rem = invariants._resolve_order(g, order)
    memo = {}

    def row(m, i):
        e = rem[i]
        c = eager_classify(m, e)
        terms = next((terms for test, terms in cases if test(c)), None)
        if terms is None:
            raise ValueError(f"edge {e!r} fits no case of the {name} recursion")
        total = None
        for coeff, mu in terms:
            if coeff is not None and not coeff:
                continue
            sub = yield reduce_map(m, e, mu), i + 1
            term = sub if coeff is None else coeff * sub
            total = term if total is None else total + term
        return zero if total is None else total

    stack = []
    state, value = (g, 0), None
    while True:
        if state is not None:
            m, i = state
            if i == len(rem):
                value = one
            else:
                key = (m.sw.img, m.sw2.img)
                value = memo.get(key)
                if value is None:
                    stack.append((key, row(m, i)))
        if not stack:
            return value
        key, gen = stack[-1]
        try:
            state = gen.send(value)
        except StopIteration as done:
            stack.pop()
            value = memo[key] = done.value
            state = None


GENERIC = ExtendedParams(
    w=2, x=3, y=5, z=7, a=Q(1, 2), b=Q(-1, 3), c=Q(2, 5), d=Q(-3, 7),
    e=Q(5, 11), f=Q(-7, 13), g=Q(11, 17), h=Q(-13, 19), i=Q(17, 23),
    j=Q(-19, 29), k=Q(23, 31), l=Q(-29, 37))

RECURSIONS = {
    "T_c": T_c,
    "T_i": T_i,
    "extended_eval/generic": lambda g: extended_eval(g, GENERIC),
}


def _value(recursion, g):
    try:
        return recursion(g)
    except ValueError:
        return "ValueError"


def test_memo_tells_reduced_edges_from_ultraloops():
    # a reduced edge and a live ultraloop are both fixed by all three
    # tuples; only the depth in the memo key tells them apart.  The states
    # of free_loops(k) form one chain, so its memo is never read at another
    # depth; maps whose rows branch are needed as well (without the depth,
    # sw = (0 1 2), sw2 = (0 1)(2 3) reads 63 instead of 81)
    three_e = SIMPLE_FAMILIES["three_E"]
    for k in range(1, 7):
        assert simple_tutte_eval(free_loops(k), three_e) == 3 ** k
    for g in maps_up_to(4):
        assert simple_tutte_eval(g, three_e) == 3 ** g.n_edges


def test_lazy_edge_class_matches_eager():
    cases = 0
    for g in maps_up_to(6, n_min=1):
        for e in g.edges:
            lazy, eager = classify_edge(g, e), eager_classify(g, e)
            cases += 1
            assert [getattr(lazy, b) for b in BITS] == \
                [getattr(eager, b) for b in BITS], (g, e)
            assert lazy.is_triloop == eager.is_triloop
            for mu in range(3):
                assert lazy.is_proper_loop(mu) == eager.is_proper_loop(mu)
                assert lazy.is_proper_semiloop(mu) == \
                    eager.is_proper_semiloop(mu)
    assert cases == sum(n * c for n, c in enumerate((0, 1, 4, 11, 43, 161, 901)))


def test_lazy_edge_class_reads_no_semiloop_bit_of_a_triloop():
    for g in maps_up_to(4, n_min=1):
        for e in g.edges:
            c = classify_edge(g, e)
            if c.is_triloop:
                assert not any(c.is_proper_semiloop(mu) for mu in range(3))


def test_edge_class_has_no_fourth_type():
    # is_loop and is_semiloop index three bits: type 3 is no type, and is
    # not read as bit 3 of the class code (set for every non-triloop)
    g = posy(1)
    for e in g.edges:
        c = classify_edge(g, e)
        assert not c.is_triloop
        for read in (c.is_loop, c.is_semiloop):
            with pytest.raises(IndexError):
                read(3)


def test_a_triloops_semiloop_bits_follow_from_its_loop_bits(six_edge_maps):
    # An ultraloop is a semiloop of all three types, and a proper μ-loop a
    # ν-semiloop exactly for ν ≠ μ; so a row of a case table depends on a
    # triloop's loop bits alone, and the class code walks no face for it.
    triloops = 0
    for g in maps_up_to(5) + six_edge_maps:
        for e in range(g.n_edges):
            c = EdgeClass(g.triple, e)
            loops = [c.is_loop(mu) for mu in range(3)]
            semi = [c.is_semiloop(mu) for mu in range(3)]
            code = _class_code(g.triple, e)
            if c.is_triloop:
                triloops += 1
                want = [True] * 3 if c.is_ultraloop else [not b for b in loops]
                assert semi == want, (g, e)
                assert code == sum(b << mu for mu, b in enumerate(loops))
            else:
                assert code == 8 + sum(b << mu for mu, b in enumerate(semi))
    assert triloops > 0
    # Rows are looked up per table: two tables handed to the engine under
    # one name, in turn, each give what the map-level engine gives them.
    x = Poly1.var()
    tables = [(
        (lambda c: c.is_omega2_loop, ((None, MUW2),)),
        (lambda c: c.is_omega_semiloop, ((x, MUW2),)),
        (lambda c: c.is_proper_semiloop(MU1) or c.is_omega_loop, ((x, MU1),)),
        (lambda c: not (c.is_1_semiloop or c.is_omega_semiloop
                        or c.is_omega2_semiloop), ((None, MU1), (None, MUW2))),
    ), (
        (lambda c: c.is_1_loop, ((None, MU1),)),
        (lambda c: c.is_proper_semiloop(MUW) or c.is_omega2_loop, ((x, MUW2),)),
        (lambda c: c.is_proper_semiloop(MUW2) or c.is_omega_loop, ((x, MUW),)),
        (lambda c: not (c.is_1_semiloop or c.is_omega_semiloop
                        or c.is_omega2_semiloop), ((None, MUW), (None, MUW2))),
    )]
    differ = 0
    for g in maps_up_to(4):
        got = []
        for cases in tables:
            args = (None, cases, Poly1.one(), Poly1.zero(), "in-star")
            want = _value(lambda g: map_level_recurse(g, *args), g)
            assert _value(lambda g: invariants._recurse(g, *args), g) == want, g
            got.append(want)
        differ += got[0] != got[1]
    assert differ > 0

@pytest.mark.parametrize("name", sorted(RECURSIONS))
def test_int_engine_matches_map_engine(name, monkeypatch):
    maps = maps_up_to(6, n_min=6)
    assert len(maps) == 901
    recursion = RECURSIONS[name]
    new = [_value(recursion, g) for g in maps]
    monkeypatch.setattr(invariants, "_recurse", map_level_recurse)
    old = [_value(recursion, g) for g in maps]
    assert new == old
