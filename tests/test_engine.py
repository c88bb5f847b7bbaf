"""Differential tests of the recursion engine on int-tuple states.

The engine's state is the image triple (σ₁, σ_ω, σ_ω²).  It classifies
edges by core._class_code, which EdgeClass decodes, and reduces with
the kernel minors._reduce, which keeps the input numbering.  These tests
hold it against an eager map-level classification, its semiloop bits
from the global definition (conftest.semiloop_pair), and the map-level
engine that it replaced: the eight bits on every edge of every map with
1-6 edges, and T_c, T_i and extended_eval on every six-edge map in the
default order.  Each case table (invariants._Table) decides the row of
a class code the first time it is asked for and keeps it, so a call
after the first builds no EdgeClass.
"""

from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import permutations

import pytest

from altdimaps import (AltDimap, ExtendedParams, SIMPLE_FAMILIES, T_a, T_c,
                       T_i, alt_a, alt_c, alt_i, classify_edge, extended_eval,
                       frontier_order, invariants, reduce_map,
                       simple_tutte_eval)
from altdimaps.catalog import free_loops, posy
from altdimaps.core import (MU1, MUW, MUW2, EdgeClass, InvariantError,
                            _class_code)
from altdimaps.perm import Perm
from altdimaps.poly import Poly1

from conftest import maps_up_to, semiloop_pair, theta, wheel

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


def map_level_recurse(g, rem, table, terms, one, zero, name):
    """The replaced engine: every state an AltDimap, renumbered by
    reduce_map and classified eagerly, each row found by scanning the
    table's tests; memo keyed by the tuples alone."""
    rem = [g.sw.labels[i] for i in rem]
    memo = {}

    def row(m, i):
        e = rem[i]
        c = eager_classify(m, e)
        k = next((k for k, test in enumerate(table) if test(c)), None)
        if k is None:
            raise ValueError(f"edge {e!r} fits no case of the {name} recursion")
        total = None
        for coeff, mu in terms[k]:
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
            code = _class_code(g.triple, e)
            c = EdgeClass(code)
            loops = [c.is_loop(mu) for mu in range(3)]
            semi = [c.is_semiloop(mu) for mu in range(3)]
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
    clockwise = invariants._Table((
        lambda c: c.is_omega2_loop,
        lambda c: c.is_omega_semiloop,
        lambda c: c.is_proper_semiloop(MU1) or c.is_omega_loop,
        lambda c: not (c.is_1_semiloop or c.is_omega_semiloop
                       or c.is_omega2_semiloop)))
    in_star = invariants._Table((
        lambda c: c.is_1_loop,
        lambda c: c.is_proper_semiloop(MUW) or c.is_omega2_loop,
        lambda c: c.is_proper_semiloop(MUW2) or c.is_omega_loop,
        lambda c: not (c.is_1_semiloop or c.is_omega_semiloop
                       or c.is_omega2_semiloop)))
    tables = [
        (clockwise, (((None, MUW2),), ((x, MUW2),), ((x, MU1),),
                     ((None, MU1), (None, MUW2)))),
        (in_star, (((None, MU1),), ((x, MUW2),), ((x, MUW),),
                   ((None, MUW), (None, MUW2)))),
    ]
    differ = 0
    for g in maps_up_to(4):
        got = []
        for table, terms in tables:
            args = (range(g.n_edges), table, terms, Poly1.one(), Poly1.zero(),
                    "in-star")
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


VALID_CODES = (0, 1, 2, 4, 7) + tuple(range(8, 16))


@pytest.mark.parametrize("name", ["_CLOCKWISE", "_EXTENDED"])
def test_decided_rows_are_the_scanned_rows(name):
    table = getattr(invariants, name)
    for code in VALID_CODES:
        c = EdgeClass(code)
        scanned = next((k for k, test in enumerate(table) if test(c)), None)
        assert table.row(code) == scanned, (name, code)
    # the generic row takes every edge the sixteen-parameter table meets;
    # T_c's table rejects exactly a proper ω²-semiloop that is neither a
    # 1- nor an ω-semiloop
    rejected = [code for code in VALID_CODES if table.row(code) is None]
    assert rejected == ([12] if name == "_CLOCKWISE" else [])


def test_each_table_keeps_its_own_rows():
    # a table built from T_c's tests decides the rows T_c's table decides,
    # into its own dict; a code with two loop bits raises on every ask and
    # is never stored
    clockwise = invariants._CLOCKWISE
    before = dict(clockwise.rows)
    fresh = invariants._Table(tuple(clockwise))
    assert fresh.rows == {}
    decided = {code: fresh.row(code) for code in VALID_CODES}
    assert fresh.rows == decided
    assert clockwise.rows == before
    assert decided == {code: clockwise.row(code) for code in VALID_CODES}
    for table in (fresh, clockwise, invariants._EXTENDED):
        for code in (3, 5, 6):
            for _ in range(2):
                with pytest.raises(InvariantError,
                                   match="triple identity violated"):
                    table.row(code)
            assert code not in table.rows


def test_two_loop_bits_raise_from_the_engine():
    # no library path can make a map whose triple does not close, so σ₁
    # is overwritten by every permutation of the edges of the maps with
    # 1-3 edges; the engine meets each of 3, 5 and 6 as a first code
    met = set()
    for g in maps_up_to(3, n_min=1):
        edges = list(g.sw.labels)
        for images in permutations(edges):
            bad = AltDimap(g.sw, g.sw2)
            bad._s1 = Perm(dict(zip(edges, images)))
            for e in edges:
                code = _class_code(bad.triple, bad.number(e))
                if code not in (3, 5, 6):
                    continue
                met.add(code)
                order = [e] + [f for f in edges if f != e]
                for run in (lambda: T_c(bad, order),
                            lambda: extended_eval(bad, GENERIC, order)):
                    with pytest.raises(InvariantError,
                                       match="triple identity violated"):
                        run()
    assert met == {3, 5, 6}


def test_an_edge_that_fits_no_row_names_its_recursion():
    # each polynomial recursion rejects an edge of some map with at most
    # four edges and names itself (the sixteen-parameter table fits every
    # edge, see above)
    for T, name in ((T_c, "clockwise"), (T_a, "anticlockwise"),
                    (T_i, "in-star")):
        rejected = 0
        for g in maps_up_to(4):
            try:
                T(g)
            except ValueError as err:
                rejected += 1
                assert str(err).endswith(
                    f"fits no case of the {name} recursion"), (g, err)
        assert rejected > 0, name


def test_a_call_builds_no_edge_class(monkeypatch):
    # each recursion on its own images of W6 and θ9, extended_eval and
    # simple_tutte_eval on alt_c's in its frontier order
    runs = []
    for p in (wheel(6), theta(9)):
        c = alt_c(p)
        order = frontier_order(c)
        runs += [(T_c, c), (T_a, alt_a(p)), (T_i, alt_i(p)),
                 (lambda g, order=order: extended_eval(g, GENERIC, order), c),
                 (lambda g, order=order: simple_tutte_eval(
                     g, SIMPLE_FAMILIES["three_E"], order), c)]
    want = [T(g) for T, g in runs]  # warm up
    built = []
    monkeypatch.setattr(invariants, "EdgeClass",
                        lambda code: built.append(code) or EdgeClass(code))
    assert [T(g) for T, g in runs] == want
    assert built == []
