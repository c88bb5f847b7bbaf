"""The binary-function calculus: transforms, minors, indicators."""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from altdimaps.binfn import (OMEGA, BinFn, SQRT2, bf_minor,
                             indicator_from_gf2, lambda_of, mu_matrix,
                             proportional_eq, solve_uniform_reduction,
                             tensor, transform, trivial_bf, ultraloop_bf)

RNG = np.random.default_rng(20260826)


def random_bf(m, rng=RNG):
    v = rng.normal(size=2 ** m) + 1j * rng.normal(size=2 ** m)
    return BinFn(tuple(range(m)), v)


# -- the kernel matrix ---------------------------------------------------------

def test_mu_matrix_identity_and_hadamard():
    assert np.allclose(mu_matrix(1), np.eye(2), atol=1e-12)
    assert np.allclose(mu_matrix(-1),
                       np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-12)


def test_mu_matrix_multiplicative():
    for _ in range(30):
        m1, m2 = RNG.normal(size=2) + 1j * RNG.normal(size=2)
        assert np.allclose(mu_matrix(m1) @ mu_matrix(m2),
                           mu_matrix(m1 * m2), atol=1e-10)


def test_mu_omega_eigensystem():
    vals = np.linalg.eigvals(mu_matrix(OMEGA))
    assert min(abs(v - 1) for v in vals) < 1e-10
    assert min(abs(v - OMEGA) for v in vals) < 1e-10
    u1 = ultraloop_bf(1)
    assert proportional_eq(transform(u1, OMEGA), u1, 1e-12)


# -- the sweep transform ---------------------------------------------------------

def test_sweep_equals_naive_kronecker():
    for m in range(5):
        f = random_bf(m)
        mu = 0.37 + 0.61j
        mat = np.eye(1)
        for _ in range(m):
            mat = np.kron(mu_matrix(mu), mat)
        assert np.max(np.abs(mat @ f.values - transform(f, mu).values)) \
            <= 1e-12


def sweep_transform(f, mu):
    """The transform as m pairwise sweeps, one 2x2 contraction per
    coordinate: the reference for the blocked kernel."""
    mat = mu_matrix(mu)
    v = np.array(f.values)
    m = f.m
    for i in range(m):
        v = np.einsum("ab,xby->xay", mat, v.reshape(2 ** (m - 1 - i), 2, 2 ** i))
    return v.reshape(-1)


@pytest.mark.parametrize("m", list(range(14)) + [19])
def test_transform_equals_coordinate_sweeps(m):
    rng = np.random.default_rng(1000 + m)
    f = random_bf(m, rng)
    for mu in (1, -1, OMEGA, OMEGA ** 2, complex(*rng.normal(size=2))):
        want = sweep_transform(f, mu)
        got = transform(f, mu).values
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_transform_leaves_input_unchanged():
    f = random_bf(9)
    before = f.values.copy()
    g = transform(f, OMEGA)
    assert np.array_equal(f.values, before)
    assert not g.values.flags.writeable


def test_transform_identity():
    f = random_bf(6)
    assert np.max(np.abs(transform(f, 1).values - f.values)) <= 1e-12


def test_transform_composition():
    for m in (1, 4, 10):
        f = random_bf(m)
        m1 = RNG.normal() + 1j * RNG.normal()
        m2 = RNG.normal() + 1j * RNG.normal()
        lhs = transform(transform(f, m1), m2)
        rhs = transform(f, m1 * m2)
        assert proportional_eq(lhs, rhs, 1e-10)


def test_trinity_transform_cubes_to_identity():
    for m in (1, 3, 6):
        f = random_bf(m)
        g = transform(transform(transform(f, OMEGA), OMEGA), OMEGA)
        # M(ω)³ = I exactly, not up to scale
        assert g.ground == f.ground
        assert np.allclose(g.values, f.values, rtol=0,
                           atol=1e-9 * np.abs(f.values).max())


def test_transform_performance_m20():
    f = BinFn(tuple(range(20)), RNG.normal(size=2 ** 20))
    t0 = time.time()
    transform(f, OMEGA)
    assert time.time() - t0 < 2.0


# -- minors ----------------------------------------------------------------------

def test_lambda_special_values():
    assert abs(lambda_of(1) - 1) < 1e-12
    assert abs(lambda_of(-1)) < 1e-12


@pytest.mark.parametrize("mu", [complex("nan"), complex("inf"),
                                complex(0, float("-inf")), 1e400, 1e308])
def test_non_finite_mu_rejected(mu):
    with pytest.raises(ValueError):
        mu_matrix(mu)
    with pytest.raises(ValueError):
        transform(ultraloop_bf(2), mu)
    if mu != 1e308:  # lambda(1e308) is finite
        with pytest.raises(ValueError):
            lambda_of(mu)


def test_minor_at_mu_1_sums_and_at_minus_1_restricts():
    f = random_bf(3)
    g = bf_minor(f, 1, 1)
    raw = np.array([f.values[0] + f.values[2], f.values[1] + f.values[3],
                    f.values[4] + f.values[6], f.values[5] + f.values[7]])
    assert proportional_eq(g, BinFn((0, 2), raw), 1e-12)
    h = bf_minor(f, 1, -1)
    raw = f.values[[0, 1, 4, 5]]
    assert proportional_eq(h, BinFn((0, 2), raw), 1e-12)


def test_minor_compatibility_with_transform():
    for m in (2, 5, 8):
        f = random_bf(m)
        for _ in range(4):
            m1 = RNG.normal() + 1j * RNG.normal()
            m2 = RNG.normal() + 1j * RNG.normal()
            e = int(RNG.integers(m))
            try:
                lhs = bf_minor(transform(f, m1), e, m2 / m1)
                rhs = transform(bf_minor(f, e, m2), m1)
            except ValueError:
                continue  # a normalizing entry vanished
            assert proportional_eq(lhs, rhs, 1e-9)


def test_minors_commute():
    for m in (3, 6):
        f = random_bf(m)
        for mu1 in (1, OMEGA, OMEGA ** 2):
            for mu2 in (1, OMEGA, OMEGA ** 2):
                lhs = bf_minor(bf_minor(f, 0, mu1), m - 1, mu2)
                rhs = bf_minor(bf_minor(f, m - 1, mu2), 0, mu1)
                assert proportional_eq(lhs, rhs, 1e-10)


def test_minor_shrinks_ground():
    f = BinFn(("a", "b"), [1, 2, 3, 4])
    g = bf_minor(f, "a", 1)
    assert g.ground == ("b",)
    with pytest.raises(ValueError):
        bf_minor(f, "zz", 1)


def test_minor_names_an_element_by_its_label_only():
    # an int that is no label is not read as a position, as in value
    f = BinFn(("a", 5), [1, 2, 3, 4])
    assert bf_minor(f, 5, 1).ground == ("a",)
    for e in (1, 0, -1):
        with pytest.raises(ValueError, match=f"^unknown ground element {e}$"):
            bf_minor(f, e, 1)
        with pytest.raises(ValueError, match=f"^unknown ground element {e}$"):
            f.value([e])


def test_minor_zero_normalizer_rejected():
    f = BinFn(("a",), [1, -1])  # 1-minor: 1 + lambda(1)*(-1) = 0
    with pytest.raises(ValueError):
        bf_minor(f, "a", 1)


# -- indicators and duality -------------------------------------------------------

def test_indicator_small_cases():
    f = indicator_from_gf2([], 2)
    assert list(f.values) == [1, 0, 0, 0]
    g = indicator_from_gf2([[1, 1]], 2)
    assert list(g.values) == [1, 0, 0, 1]


def test_hadamard_duality():
    rows = [[1, 1, 0], [0, 1, 1]]
    dual_rows = [[1, 1, 1]]
    f = indicator_from_gf2(rows, 3)
    g = indicator_from_gf2(dual_rows, 3)
    assert proportional_eq(transform(f, -1), g, 1e-10)
    assert proportional_eq(transform(g, -1), f, 1e-10)


# -- tensor and the ultraloop chain -------------------------------------------------

def test_tensor_values():
    f = BinFn(("a",), [1, 2])
    g = BinFn(("b",), [1, 3])
    t = tensor(f, g)
    assert t.ground == ("a", "b")
    assert t.value(["a", "b"]) == 6 and t.value(["b"]) == 3


def test_tensor_rejects_overlap():
    f = BinFn(("a",), [1, 2])
    with pytest.raises(ValueError):
        tensor(f, f)


def test_tensor_overlap_error_is_canonical():
    # the shared labels in perm.numbering order, each frozenset printed
    # with its members sorted, whatever the hash seed and insertion order
    f = BinFn(("b", "a"), [1, 2, 3, 4])
    with pytest.raises(ValueError, match=r"^ground sets overlap: 'a', 'b'$"):
        tensor(f, f)
    for members in (["ab", "cd", "ef"], ["ef", "cd", "ab"], ["cd", "ef", "ab"]):
        label = frozenset()
        for m in members:
            label = label | {m}
        g = ultraloop_bf(1, labels=(label,))
        with pytest.raises(ValueError) as err:
            tensor(g, g)
        assert str(err.value) == \
            "ground sets overlap: frozenset({'ab', 'cd', 'ef'})"


def test_ultraloop_bf_values():
    assert ultraloop_bf(0).values[0] == 1
    f = ultraloop_bf(2)
    assert abs(f.values[1] - (SQRT2 - 1)) < 1e-12
    assert abs(f.values[3] - (SQRT2 - 1) ** 2) < 1e-12


def test_every_ultraloop_minor_is_smaller_ultraloop():
    f = ultraloop_bf(3)
    for e in range(3):
        for mu in (1, OMEGA, OMEGA ** 2):
            assert proportional_eq(bf_minor(f, e, mu), ultraloop_bf(2), 1e-10)


def test_solve_uniform_reduction_chain():
    for k in range(7):
        f = solve_uniform_reduction(ultraloop_bf(k))
        assert proportional_eq(f, ultraloop_bf(k + 1), 1e-9)


def test_solve_on_trivial():
    f = solve_uniform_reduction(trivial_bf())
    assert np.allclose(f.values, [1, SQRT2 - 1], atol=1e-12)


def test_solve_reports_on_empty_set_indicator():
    # the point indicator happens to extend consistently
    f = solve_uniform_reduction(indicator_from_gf2([], 1))
    assert np.allclose(f.values, [1, 0, 0, 0], atol=1e-12)


def test_solve_infeasible():
    u = BinFn((0, 1), [1, 2, 3, 4])
    with pytest.raises(ValueError):
        solve_uniform_reduction(u)


def test_solve_requires_normalized():
    with pytest.raises(ValueError):
        solve_uniform_reduction(BinFn((0,), [2, 1]))


# -- proportionality ------------------------------------------------------------

@given(st.integers(0, 5), st.integers(1, 10 ** 6))
@settings(max_examples=40)
def test_proportional_scaling(m, num):
    f = random_bf(m, np.random.default_rng(num))
    g = BinFn(f.ground, f.values * (num * (0.5 + 0.25j)))
    assert proportional_eq(f, g, 1e-9)


def test_not_proportional():
    f = BinFn((0,), [1, 2])
    g = BinFn((0,), [1, 3])
    assert not proportional_eq(f, g, 1e-12)
    with pytest.raises(ValueError):
        proportional_eq(f, BinFn((0,), [0, 0]), 1e-12)


def test_binfn_validation():
    with pytest.raises(ValueError):
        BinFn(("a",), [1, 2, 3])
    with pytest.raises(ValueError):
        BinFn(("a", "a"), [1, 2, 3, 4])
    with pytest.raises(ValueError, match="^m must be an int of at least 0, got -1$"):
        indicator_from_gf2([], -1)
    for m in (2.5, True, "3"):
        with pytest.raises(ValueError, match="^m must be an int of at least 0, got "):
            indicator_from_gf2([], m)
    with pytest.raises(ValueError, match="^row length must equal m$"):
        indicator_from_gf2([[1, 0]], 3)
    with pytest.raises(ValueError, match="^matrix entries must be 0 or 1$"):
        indicator_from_gf2([[1, 2]], 2)
    with pytest.raises(ValueError, match="^k must be an int of at least 0, got -1$"):
        ultraloop_bf(-1)
    with pytest.raises(ValueError, match="^need exactly k labels$"):
        ultraloop_bf(2, labels=("a",))
    with pytest.raises(ValueError, match="^ground sets differ in size$"):
        proportional_eq(ultraloop_bf(1), ultraloop_bf(2))


def test_binfn_value_rejects_an_unknown_ground_element():
    f = ultraloop_bf(2, labels=("x", "y"))
    assert f.value(["x", "y"]) == pytest.approx((SQRT2 - 1) ** 2)
    with pytest.raises(ValueError, match="unknown ground element 'z'"):
        f.value(["x", "z"])


def test_binfn_keeps_caller_array_writeable():
    arr = np.array([1, 2, 3, 4], dtype=np.complex128)
    f = BinFn(("a", "b"), arr)
    arr[1] = 5  # the caller's array is still its own to write
    assert arr.flags.writeable and not f.values.flags.writeable
    with pytest.raises(ValueError):
        f.values[1] = 6


def test_binfn_equality():
    assert ultraloop_bf(2) == ultraloop_bf(2)
    assert ultraloop_bf(2) != ultraloop_bf(2, labels=("a", "b"))
    assert ultraloop_bf(2) != ultraloop_bf(3)
    assert BinFn((0,), [1, 2]) != BinFn((0,), [1, 3])
    assert BinFn((0,), [1, 2]) != (0,)
    with pytest.raises(TypeError):
        hash(ultraloop_bf(1))
