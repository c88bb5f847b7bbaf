"""Acceptance gate: eight exhaustive small-instance verification criteria.

Each test prints one `criterion N ...: PASS/FAIL` line directly to the
real stdout so the verdicts are visible even under output capture.
"""

import functools
import sys
import time
from fractions import Fraction
from itertools import permutations

import numpy as np
import sympy as sp

from altdimaps import (SIMPLE_FAMILIES, SimpleParams, T_a, T_c, T_i, alt_a,
                       alt_c, alt_i, canonical_code, classify_edge,
                       commute_check, enumerate_maps, isomorphic, map_stats,
                       minor_closure, plane_multigraph, reduce_map,
                       rotation_system, simple_family_value,
                       simple_tutte_eval, trial, trial_power, tutte_poly)
from altdimaps.binfn import (OMEGA, SQRT2, BinFn, bf_minor,
                             indicator_from_gf2, mu_matrix, proportional_eq,
                             solve_uniform_reduction, transform,
                             ultraloop_bf)
from altdimaps.catalog import (free_loops, loop_star_1, loop_star_omega,
                               loop_star_omega2, posies)
from altdimaps.minors import (is_2_reduction_commutative, is_posy_union,
                              is_totally_reduction_commutative,
                              predict_commute)

from conftest import (digon_with_omega2_loop, maps_up_to, plane_suite,
                      totally_commutative_brute)


def report(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*a, **k):
            try:
                fn(*a, **k)
            except BaseException:
                print(f"criterion {label}: FAIL", file=sys.__stdout__)
                raise
            print(f"criterion {label}: PASS", file=sys.__stdout__)
        return wrapper
    return deco


ALL4 = maps_up_to(4)
ALL5 = ALL4 + enumerate_maps(5)


@report("1 (census)")
def test_criterion_1_census():
    assert len(enumerate_maps(1)) == 1
    two = enumerate_maps(2)
    assert len(two) == 4
    self_trial = [g for g in two if isomorphic(g, trial(g))]
    assert len(self_trial) == 1
    assert isomorphic(self_trial[0], free_loops(2))
    assert [len(posies(k)) for k in (0, 1, 2)] == [1, 1, 3]
    t0 = time.time()
    assert len(enumerate_maps(5)) == 161
    assert time.time() - t0 < 60


@report("2 (triality)")
def test_criterion_2_triality():
    for g in ALL4:
        assert trial(trial(trial(g))) == g
        for e in g.edges:
            for j in range(3):       # the trial power mu = omega^j
                for i in range(3):   # the reduction type nu = omega^i
                    lhs = reduce_map(trial_power(g, j), e, i)
                    rhs = trial_power(reduce_map(g, e, (i + j) % 3), j)
                    assert lhs == rhs


@report("3 (commutativity)")
def test_criterion_3_commutativity():
    for g in ALL4:
        edges = sorted(g.edges)
        pair_ok = True
        for a in edges:
            for b in edges:
                if a == b:
                    continue
                for mu in range(3):
                    for nu in range(3):
                        actual, predicted = commute_check(g, a, mu, b, nu)
                        assert actual == predicted
                        if mu == nu:
                            assert actual  # same-type always commutes
                        ca, cb = classify_edge(g, a), classify_edge(g, b)
                        # an ultraloop edge never interferes (the
                        # general triloop version of this fails)
                        if ca.is_ultraloop or cb.is_ultraloop:
                            assert actual
                        pair_ok = pair_ok and actual
        assert is_2_reduction_commutative(g) == pair_ok
        if g.edges:
            assert is_totally_reduction_commutative(g) == \
                totally_commutative_brute(g)


@report("4 (genus)")
def test_criterion_4_genus():
    t0 = time.time()
    for g in ALL5:
        st = map_stats(g)
        assert rotation_system(g).genus() == st.genus
        if not g.edges:
            continue
        clo = minor_closure(g).values()
        for k in (1, 2):
            no_witness = not any(m.edges and is_posy_union(m) == k
                                 for m in clo)
            assert (st.genus < k) == no_witness
    assert time.time() - t0 < 600


@report("5 (semiloop laws)")
def test_criterion_5_semiloop_laws():
    for g in ALL4:
        st = map_stats(g)
        h = trial(g)
        planar = st.genus == 0
        for e in g.edges:
            c = classify_edge(g, e)
            ch = classify_edge(h, e)
            for mu in range(3):
                # reduction law: the mu-reduction of a proper
                # mu^{-1}-semiloop splits a component or drops genus
                if c.is_proper_semiloop((-mu) % 3):
                    sh = map_stats(reduce_map(g, e, mu))
                    assert sh.n_components > st.n_components \
                        or sh.genus < st.genus
                # trial law: mu-semiloop <-> (mu*omega)-semiloop in trial
                assert c.is_semiloop(mu) == ch.is_semiloop((mu + 1) % 3)
            # two-semiloop rule: loop => both semiloops always;
            # the equivalence is exact on genus-0 maps
            for m1 in range(3):
                for m2 in range(m1 + 1, 3):
                    both = c.is_semiloop(m1) and c.is_semiloop(m2)
                    lp = c.is_loop((-(m1 + m2)) % 3)
                    if lp:
                        assert both
                    if planar:
                        assert both == lp


@report("6 (simple Tutte invariants)")
def test_criterion_6_simple_invariants():
    # five order-independent families with closed forms, on <=4 edges
    for g in ALL4:
        edges = sorted(g.edges)
        orders = [edges, edges[::-1]] + \
            [list(o) for o in list(permutations(edges))[:6]]
        for name, params in SIMPLE_FAMILIES.items():
            want = simple_family_value(g, name)
            for order in orders:
                assert simple_tutte_eval(g, params, order=order) == want
    # symbolic witness identities
    w, x, y, z = sp.symbols("w x y z")
    P = SimpleParams(w, x, y, z)
    assert sp.simplify(simple_tutte_eval(free_loops(3), P) - w ** 3) == 0
    assert sp.simplify(simple_tutte_eval(loop_star_1(2), P) - x * w) == 0
    assert sp.simplify(simple_tutte_eval(loop_star_omega(2), P) - y * w) == 0
    assert sp.simplify(simple_tutte_eval(loop_star_omega2(2), P) - z * w) == 0
    assert sp.simplify(simple_tutte_eval(digon_with_omega2_loop(), P)
                       - x * z * w) == 0
    # the proof constraints: every <=3-edge order difference factors
    # into the pairwise constraints, and each family satisfies all four
    c1, c2, c3 = x * z - x - z - w, x * y - x - y - w, y * z - y - z - w
    c4 = x * y + x * z + y * z - x * y * z
    allowed = {sp.factor(s * w * c) for c in (c1, c2, c3) for s in (1, -1)}
    for g in maps_up_to(3, n_min=2):
        edges = sorted(g.edges)
        base = sp.expand(simple_tutte_eval(g, P, order=edges))
        for o in permutations(edges):
            d = sp.factor(base - sp.expand(simple_tutte_eval(g, P, order=o)))
            assert d == 0 or d in allowed
    for params in SIMPLE_FAMILIES.values():
        pw, px, py, pz = params.w, params.x, params.y, params.z
        assert px + pz + pw == px * pz
        assert px + py + pw == px * py
        assert py + pz + pw == py * pz
        assert px * pz + px * py + py * pz == px * py * pz
    # c4 is needed and consistent: not implied by the pairwise ones,
    # yet satisfied by every family
    gb = sp.groebner([c1, c2, c3], w, x, y, z)
    assert gb.reduce(c4)[1] != 0


def _rank_nullity_tutte(mg):
    xs, ys = sp.symbols("x y")
    edges = sorted(mg.edges, key=repr)
    n = len(mg.vertices)

    def rank(sub):
        parent = {v: v for v in mg.vertices}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v
        comps = n
        for (_, u, v) in sub:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                comps -= 1
        return n - comps

    r_e = rank(edges)
    return sp.expand(sum(
        (xs - 1) ** (r_e - rank([e for i, e in enumerate(edges)
                                 if mask >> i & 1])) *
        (ys - 1) ** (bin(mask).count("1") -
                     rank([e for i, e in enumerate(edges) if mask >> i & 1]))
        for mask in range(2 ** len(edges))))


@report("7 (Tutte correspondence)")
def test_criterion_7_tutte_correspondence():
    xs, ys = sp.symbols("x y")
    for name, p in plane_suite().items():
        oracle = tutte_poly(plane_multigraph(p))
        # the oracle itself matches the rank-nullity subset expansion
        as_sympy = sp.expand(sum(c * xs ** i * ys ** j
                                 for (i, j), c in oracle.coeffs.items()))
        assert as_sympy == _rank_nullity_tutte(plane_multigraph(p)), name
        for recursion, image in ((T_c, alt_c(p)), (T_a, alt_a(p))):
            edges = sorted(image.edges, key=repr)
            for order in (edges, edges[::-1], edges[1:] + edges[:1]):
                assert recursion(image, order=order) == oracle, (name, order)
        diag = oracle.diagonal()
        for choice in (0, 1):
            assert T_i(alt_i(p, orientation_choice=choice)) == diag, \
                (name, choice)


@report("8 (binary functions)")
def test_criterion_8_binary_functions():
    rng = np.random.default_rng(7)

    def rand_bf(m):
        return BinFn(tuple(range(m)),
                     rng.normal(size=2 ** m) + 1j * rng.normal(size=2 ** m))

    # sweep transform == naive Kronecker product, m <= 4
    for m in range(5):
        f = rand_bf(m)
        mu = 0.3 - 1.1j
        mat = np.eye(1)
        for _ in range(m):
            mat = np.kron(mu_matrix(mu), mat)
        assert np.max(np.abs(mat @ f.values - transform(f, mu).values)) \
            <= 1e-12
    # multiplicativity and the trinity cube
    for _ in range(10):
        m1, m2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert np.allclose(mu_matrix(m1) @ mu_matrix(m2),
                           mu_matrix(m1 * m2), atol=1e-10)
    for m in (2, 6, 10):
        f = rand_bf(m)
        g = transform(transform(transform(f, OMEGA), OMEGA), OMEGA)
        assert proportional_eq(g, f, 1e-9)
    # transform-minor compatibility, m <= 8
    for m in (3, 8):
        f = rand_bf(m)
        for _ in range(3):
            m1 = rng.normal() + 1j * rng.normal()
            m2 = rng.normal() + 1j * rng.normal()
            e = int(rng.integers(m))
            assert proportional_eq(bf_minor(transform(f, m1), e, m2 / m1),
                                   transform(bf_minor(f, e, m2), m1), 1e-9)
    # minor commutation
    f = rand_bf(5)
    for mu1 in (1, OMEGA, OMEGA ** 2):
        for mu2 in (1, OMEGA, OMEGA ** 2):
            assert proportional_eq(bf_minor(bf_minor(f, 0, mu1), 4, mu2),
                                   bf_minor(bf_minor(f, 4, mu2), 0, mu1),
                                   1e-10)
    # GF(2) Hadamard duality
    ind = indicator_from_gf2([[1, 1, 0], [0, 1, 1]], 3)
    dual = indicator_from_gf2([[1, 1, 1]], 3)
    assert proportional_eq(transform(ind, -1), dual, 1e-10)
    # the eigenvector package
    u1 = ultraloop_bf(1)
    assert proportional_eq(transform(u1, OMEGA), u1, 1e-12)
    eig = np.linalg.eigvals(mu_matrix(OMEGA))
    assert min(abs(v - 1) for v in eig) < 1e-10
    assert min(abs(v - OMEGA) for v in eig) < 1e-10
    # the uniform-reduction chain
    for k in range(7):
        assert proportional_eq(solve_uniform_reduction(ultraloop_bf(k)),
                               ultraloop_bf(k + 1), 1e-9)
    # performance: transform at m = 20 under 2 s
    big = BinFn(tuple(range(20)), rng.normal(size=2 ** 20))
    t0 = time.time()
    transform(big, OMEGA)
    assert time.time() - t0 < 2.0
