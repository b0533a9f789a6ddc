import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from gpoly import mathcore as mc


# ------------------------------------------------------------ simplex volume

def test_simplex_volume_segment():
    assert abs(mc.simplex_volume([[0.0], [3.0]]) - 3.0) <= 1e-12


def test_simplex_volume_unit_right_triangle():
    vol = mc.simplex_volume([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert abs(vol - 0.5) <= 1e-12


def test_simplex_volume_dimension_mismatch():
    with pytest.raises(ValueError):
        mc.simplex_volume([[0.0], [1.0], [2.0]])  # 3 points in R^1
    with pytest.raises(ValueError):
        mc.simplex_volume([[0.0, 0.0], [3.0, 0.0]])  # a segment in R^2


def test_simplex_volume_invariances():
    rng = np.random.default_rng(3)
    for d in (2, 3, 5):
        pts = rng.standard_normal((d + 1, d))
        vol = mc.simplex_volume(pts)
        perm = rng.permutation(d + 1)
        assert abs(mc.simplex_volume(pts[perm]) - vol) <= 1e-9 * vol
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        assert abs(mc.simplex_volume(pts @ q) - vol) <= 1e-9 * vol


def test_simplex_volume_block_matches_scalar_calls():
    rng = np.random.default_rng(5)
    for m, n in ((2, 1), (4, 3), (6, 5)):
        block = rng.standard_normal((50, m, n))
        vols = mc.simplex_volume(block)
        assert vols.shape == (50,)
        for pts, vol in zip(block, vols):
            assert abs(vol - mc.simplex_volume(pts)) <= 1e-13 * vol


def test_simplex_volume_block_singular_row_is_zero():
    # row 3 is a triangle 1e-14 from collinear: np.linalg.det sees a nonzero
    # area, the degeneracy rule calls it singular, and the block must agree
    block = np.random.default_rng(6).standard_normal((8, 3, 2))
    block[3] = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0 + 1e-14]]
    assert np.linalg.det(block[3, 1:] - block[3, 0]) != 0.0
    assert mc.simplex_volume(block[3]) == 0.0
    vols = mc.simplex_volume(block)
    assert vols[3] == 0.0
    assert np.all(np.delete(vols, 3) > 0.0)


def test_simplex_volume_high_dimension():
    # the screen sends the row to the SVD rule, which keeps its determinant
    pts = np.random.default_rng(0).standard_normal((61, 60))
    edges = pts[1:] - pts[0]
    want = abs(np.linalg.det(edges)) / math.factorial(60)
    assert abs(mc.simplex_volume(pts) - want) <= 1e-10 * want


def test_simplex_volume_rejects_non_finite():
    with pytest.raises(ValueError):
        mc.simplex_volume([[0.0, 0.0], [1.0, np.inf], [0.0, 1.0]])


# --------------------------------------------------------- special functions

def test_cdf_at_zero():
    assert mc.std_normal_cdf(0.0) == 0.5


def test_cdf_against_high_precision_oracle():
    import mpmath
    mpmath.mp.dps = 30
    oracle = float(mpmath.ncdf(1.96))
    assert abs(mc.std_normal_cdf(1.96) - oracle) <= 1e-15
    assert abs(mc.std_normal_cdf(1.96) - 0.9750021049) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-8.0, max_value=8.0))
def test_cdf_symmetry(y):
    assert abs(mc.std_normal_cdf(y) + mc.std_normal_cdf(-y) - 1.0) <= 1e-14


def test_log_gamma():
    assert mc.log_gamma(1.0) == 0.0
    assert abs(mc.log_gamma(5.0) - math.log(24.0)) <= 1e-12
    assert abs(mc.log_gamma(0.5) - math.log(math.sqrt(math.pi))) <= 1e-12
    with pytest.raises(ValueError):
        mc.log_gamma(0.0)
    with pytest.raises(ValueError):
        mc.log_gamma(-1.5)


def test_log_binomial():
    assert mc.log_binomial(17, 0) == 0.0
    assert abs(mc.log_binomial(4, 2) - math.log(6.0)) <= 1e-12
    exact = math.comb(24, 12)  # integer oracle
    assert exact == 2704156
    assert abs(mc.log_binomial(24, 12) - math.log(exact)) <= 1e-10
    with pytest.raises(ValueError):
        mc.log_binomial(4, 5)
    with pytest.raises(ValueError):
        mc.log_binomial(4, -1)


# ----------------------------------------------------------------- quadrature

def test_integrate_constant():
    res = mc.integrate_1d(lambda y: 1.0, 0.0, 1.0)
    assert abs(res.value - 1.0) <= 1e-14
    assert res.evaluations >= 1
    assert res.abs_error_estimate >= 0.0


def test_integrate_gaussian_powers():
    # closed form: integral of phi^d over R is (2 pi)^((1-d)/2) / sqrt(d)
    for d in range(1, 31):
        res = mc.integrate_1d(
            lambda y, d=d: norm.pdf(y) ** d, -10.0, 10.0,
            rel_tol=1e-12)
        closed = (2 * math.pi) ** ((1 - d) / 2) / math.sqrt(d)
        assert abs(res.value - closed) <= 1e-10 * closed


def test_integrate_survival_square():
    # antiderivative of (1-Phi)^2 phi is -(1-Phi)^3 / 3
    res = mc.integrate_1d(
        lambda y: (1 - mc.std_normal_cdf(y)) ** 2 * norm.pdf(y),
        -10.0, 10.0, rel_tol=1e-12)
    assert abs(res.value - 1.0 / 3.0) <= 1e-10


def test_integrate_rel_tol_floor():
    with pytest.raises(ValueError):
        mc.integrate_1d(lambda y: 1.0, 0.0, 1.0, rel_tol=1e-14)


def test_integrate_nonconvergence_reports_best_value():
    with pytest.raises(mc.QuadratureError) as err:
        mc.integrate_1d(lambda y: math.sin(1.0 / y), 1e-8, 1.0,
                        rel_tol=1e-13)
    assert err.value.evaluations >= 1
    assert math.isfinite(err.value.value)


# ---------------------------------------------------------------- maximizers

def test_maximize_1d_gaussian_pdf():
    res = mc.maximize_1d(norm.pdf, -8.0, 8.0)
    assert abs(res.argmax[0]) <= 1e-9
    assert abs(res.value - 1.0 / math.sqrt(2 * math.pi)) <= 1e-12


def test_maximize_1d_even_function_argmax_zero():
    def f(y):
        p = mc.std_normal_cdf(y)
        return p * (1 - p) * norm.pdf(y) ** 2

    res = mc.maximize_1d(f, -8.0, 8.0)
    assert abs(res.argmax[0]) <= 1e-6
    assert abs(res.value - f(res.argmax[0])) <= 1e-12 * res.value


def test_maximize_1d_against_dense_grid_oracle():
    def f(y):
        return (1 - mc.std_normal_cdf(y)) * norm.pdf(y)

    ys = np.linspace(-8.0, 8.0, 1_000_001)
    fs = (1 - mc.std_normal_cdf(ys)) * norm.pdf(ys)
    i = int(np.argmax(fs))
    res = mc.maximize_1d(f, -8.0, 8.0)
    assert res.value >= fs[i]            # refinement can only improve on a grid
    assert abs(res.value - fs[i]) <= 1e-9
    assert abs(res.argmax[0] - ys[i]) <= 1e-3
    assert abs(res.argmax[0] - (-0.506)) <= 1e-3


def test_maximize_1d_monotone_under_grid_doubling():
    def f(y):
        return (1 - mc.std_normal_cdf(y)) * norm.pdf(y)

    coarse = mc.maximize_1d(f, -8.0, 8.0, grid_nodes=2049)
    fine = mc.maximize_1d(f, -8.0, 8.0, grid_nodes=4097)
    assert fine.value >= coarse.value - 1e-15
    assert abs(fine.value - coarse.value) <= 1e-9


def test_maximize_box_constant():
    res = mc.maximize_box(lambda x: np.full(len(x), 4.25),
                          [(0.0, 1.0), (0.0, 1.0)])
    assert res.value == 4.25


def test_maximize_box_quadratic():
    res = mc.maximize_box(lambda x: -x[:, 0] ** 2 - x[:, 1] ** 2,
                          [(0.0, 2.0), (-1.0, 1.0)])
    assert abs(res.value) <= 1e-12
    assert np.allclose(res.argmax, [0.0, 0.0], atol=1e-6)


def test_maximize_box_argmax_in_box_and_value_consistent():
    def f(x):
        return np.sin(3 * x[:, 0]) * np.cos(2 * x[:, 1]) + 0.1 * x[:, 0]

    box = [(-2.0, 2.0), (-2.0, 2.0)]
    res = mc.maximize_box(f, box)
    for (lo, hi), xi in zip(box, res.argmax):
        assert lo <= xi <= hi
    assert abs(res.value - f(res.argmax[None])[0]) <= 1e-12 * abs(res.value)


def test_maximize_box_monotone_under_grid_doubling():
    def f(pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.exp(-x * x) * np.cos(3 * y)

    box = [(0.0, 2.0), (-1.0, 1.0)]
    coarse = mc.maximize_box(f, box, grid_nodes=65)
    fine = mc.maximize_box(f, box, grid_nodes=129)
    assert fine.value >= coarse.value - 1e-15
    assert abs(fine.value - coarse.value) <= 1e-7


def test_maximize_box_dimension_limits():
    with pytest.raises(ValueError):
        mc.maximize_box(lambda x: np.zeros(len(x)), [(0.0, 1.0)] * 4)
    with pytest.raises(ValueError):
        mc.maximize_box(lambda x: np.zeros(len(x)), [])
    with pytest.raises(ValueError):
        mc.maximize_box(lambda x: np.zeros(len(x)), [(1.0, 1.0)])
