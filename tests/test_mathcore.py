import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, special
from scipy.stats import norm

from gpoly import mathcore as mc
from gpoly import theory as th


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


# ------------------------------------------------------ signed-volume kernel

def exact_det_sign(matrix, steps=None):
    """Sign of the determinant of a float matrix, each entry the dyadic
    rational it stores, by Gaussian elimination in Fractions. Appends
    ("swap", c) or ("singular", c) to ``steps`` where column c swaps rows
    or has no pivot."""
    m = [[Fraction(float(v)) for v in row] for row in matrix]
    sign = 1
    for c in range(len(m)):
        p = next((r for r in range(c, len(m)) if m[r][c] != 0), None)
        if p is None:
            if steps is not None:
                steps.append(("singular", c))
            return 0
        if p != c:
            m[c], m[p] = m[p], m[c]
            sign = -sign
            if steps is not None:
                steps.append(("swap", c))
        sign *= 1 if m[c][c] > 0 else -1
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return sign


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_sure_determinants_have_the_exact_sign(d):
    # near-singular edge matrices: the last row is a combination of the
    # others plus t times a unit vector, with t swept through the rounding
    # bound, at three scales, and exactly singular integer matrices, whose
    # computed determinant is rounding noise
    rng = np.random.default_rng(d)
    rows = []
    for t in np.logspace(-17, -3, 120):
        e = rng.standard_normal((d, d))
        e[-1] = rng.standard_normal(d - 1) @ e[:-1] \
            + t * rng.choice([-1.0, 1.0]) * np.eye(d)[rng.integers(d)]
        rows += [e, e * 2.0 ** -100, e * 2.0 ** 100]
    for _ in range(40):
        e = rng.integers(-9, 10, (d, d)).astype(float)
        e[-1] = rng.integers(-3, 4, d - 1) @ e[:-1]
        rows.append(e / 3.0)
    edges = np.array(rows)
    dets, sure, clear = mc.signed_volumes(edges, 1.0)
    exact = np.array([exact_det_sign(e) for e in edges])
    assert np.all(np.sign(dets[sure]) == exact[sure])
    assert not clear[~sure].any()
    # the static bound of the docstring, g > 4 kappa F, certifies every
    # determinant with |det| / F^d above 4 kappa (d - 1)^((1 - d) / 2), F
    # the Frobenius norm, and nothing below the rounding unit of Hadamard's
    # bound; the sweep straddles both, and no exactly singular row is sure
    gamma = d * 2.0 ** -53 / (1.0 - d * 2.0 ** -53)
    kappa = 1.01 * (2.0 ** -53 + d * d * gamma * 2.0 ** (d - 1))
    bound = 4 * kappa * (d - 1) ** ((1 - d) / 2)
    static = np.abs(dets) / np.linalg.norm(edges, axis=(1, 2)) ** d
    with np.errstate(invalid="ignore"):  # a zero row: 0 / 0
        ratio = np.abs(dets) / np.prod(np.linalg.norm(edges, axis=2), axis=1)
    assert np.all(sure[static > 1.01 * bound])
    assert not sure[ratio < 2.0 ** -53].any()
    assert (static > 1.01 * bound).sum() > 60 \
        and (ratio < 2.0 ** -53).sum() > 40
    assert not sure[exact == 0].any()


@pytest.mark.parametrize("d", range(1, 9))
def test_orientation_signs_match_the_exact_oracle(d):
    # integer points whose last point is an integer affine combination of
    # the others (exact zeros), some of them nudged by 2^-40 (tiny nonzero
    # signs), and Gaussian points, each column scaled by a power of two up
    # to 2^+-1000 (subnormals included), which keeps every sign; and
    # Gaussian entries at exponents mixed from 1e-300 to 1e300
    rng = np.random.default_rng(d)
    pts = rng.integers(-9, 10, (30, d + 1, d)).astype(float)
    pts[:, -1] = pts[:, 0] + np.einsum("ti,tij->tj", rng.integers(
        -3, 4, (30, d - 1)), pts[:, 1:d] - pts[:, :1])
    pts[20:, -1, 0] += 2.0 ** -40
    block = np.concatenate([pts, rng.standard_normal((10, d + 1, d))]) \
        * np.exp2(rng.integers(-1000, 1001, (40, 1, d)))
    block = np.concatenate([block, rng.standard_normal((20, d + 1, d))
                            * 10.0 ** rng.uniform(-300, 300, (20, d + 1, d))])
    want = [exact_det_sign(np.hstack([m, np.ones((d + 1, 1))]))
            for m in block]
    assert mc.orientation_signs(block).tolist() == want
    assert want[:20] == [0] * 20 and want[20:30].count(0) < 5
    assert mc.orientation_signs(block[3]) == want[3]
    # points in {-1, 0, 1}^d, half of the entries 0: in one block, matrices
    # swap rows at every elimination step and turn singular at different
    # steps, each matrix on its own
    tiny = rng.choice([-1.0, 0.0, 0.0, 1.0], (100, d + 1, d))
    steps = []
    want = [exact_det_sign(np.hstack([m, np.ones((d + 1, 1))]), steps)
            for m in tiny]
    assert mc.orientation_signs(tiny).tolist() == want
    assert {c for kind, c in steps if kind == "swap"} == set(range(d))
    assert len({c for kind, c in steps if kind == "singular"}) >= 2


def test_signed_volumes_screen_implies_the_rule():
    # a cleared matrix passes the SVD rule, and so does the edge matrix of
    # every d of its d + 1 points, in any order
    rng = np.random.default_rng(11)
    for d in (1, 2, 4, 7):
        pts = rng.standard_normal((300, d + 1, d))
        pts[::3, 1] = pts[::3, 0] + rng.standard_normal((100, d)) \
            * 10.0 ** -rng.uniform(4, 12, (100, 1))
        edges = pts[:, 1:] - pts[:, :1]
        scale = mc.coordinate_scale(pts)
        _, sure, clear = mc.signed_volumes(edges, scale)
        assert clear.any() and not clear.all() and np.all(sure[clear])
        for k in range(d + 1):
            sub = rng.permuted(np.delete(pts, k, axis=1), axis=1)
            sv = np.linalg.svd(sub[:, 1:] - sub[:, :1], compute_uv=False)
            assert not mc.degenerate(sv, scale)[clear].any()
        sv = np.linalg.svd(edges, compute_uv=False)
        assert not mc.degenerate(sv, scale)[clear].any()


# --------------------------------------------------------- special functions

def test_cdf_at_zero():
    assert special.ndtr(0.0) == 0.5


def test_cdf_against_high_precision_oracle():
    import mpmath
    mpmath.mp.dps = 30
    oracle = float(mpmath.ncdf(1.96))
    assert abs(special.ndtr(1.96) - oracle) <= 1e-15
    assert abs(special.ndtr(1.96) - 0.9750021049) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-8.0, max_value=8.0))
def test_cdf_symmetry(y):
    assert abs(special.ndtr(y) + special.ndtr(-y) - 1.0) <= 1e-14


def test_log_gamma():
    assert special.gammaln(1.0) == 0.0
    assert abs(special.gammaln(5.0) - math.log(24.0)) <= 1e-12
    assert abs(special.gammaln(0.5) - math.log(math.sqrt(math.pi))) <= 1e-12


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
        lambda y: (1 - special.ndtr(y)) ** 2 * norm.pdf(y),
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
        p = special.ndtr(y)
        return p * (1 - p) * norm.pdf(y) ** 2

    res = mc.maximize_1d(f, -8.0, 8.0)
    assert abs(res.argmax[0]) <= 1e-6
    assert abs(res.value - f(res.argmax[0])) <= 1e-12 * res.value


def test_maximize_1d_against_dense_grid_oracle():
    def f(y):
        return (1 - special.ndtr(y)) * norm.pdf(y)

    ys = np.linspace(-8.0, 8.0, 1_000_001)
    fs = (1 - special.ndtr(ys)) * norm.pdf(ys)
    i = int(np.argmax(fs))
    res = mc.maximize_1d(f, -8.0, 8.0)
    assert res.value >= fs[i]            # refinement can only improve on a grid
    assert abs(res.value - fs[i]) <= 1e-9
    assert abs(res.argmax[0] - ys[i]) <= 1e-3
    assert abs(res.argmax[0] - (-0.506)) <= 1e-3


def test_maximize_1d_monotone_under_grid_doubling():
    def f(y):
        return (1 - special.ndtr(y)) * norm.pdf(y)

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


def sequential_maximize_box(f, box, grid_nodes=65):
    """The oracle: maximize_box as it was with one scipy Nelder-Mead run per
    start, in turn. Also returns the number of refinement evaluations."""
    box = [(float(lo), float(hi)) for lo, hi in box]
    los = np.array([lo for lo, _ in box])
    his = np.array([hi for _, hi in box])
    axes = [np.linspace(lo, hi, grid_nodes) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    vals = np.asarray(f(pts), dtype=float)
    order = np.argsort(vals)[::-1][:mc.REFINE_STARTS]
    best_i = int(order[0])
    best_x, best_f = pts[best_i].copy(), float(vals[best_i])
    evaluations = 0

    def neg_clamped(x):
        nonlocal best_x, best_f, evaluations
        evaluations += 1
        xc = np.clip(x, los, his)
        v = float(f(xc[None, :])[0])
        if v > best_f:
            best_x, best_f = xc.copy(), v
        return -v

    refinements = 0
    for start in order:
        res = optimize.minimize(neg_clamped, pts[start], method="Nelder-Mead",
                                options={"xatol": 1e-11, "fatol": 1e-13,
                                         "maxiter": 2000})
        refinements += int(res.nit)
    return (best_f, best_x, refinements), evaluations


def stacked_estranged(monkeypatch):
    """(f, box) as estranged_constants passes them to maximize_boxes: f
    gives the four sign pairs' kernels as columns."""
    seen = []

    def record(f, box, grid_nodes=65):
        seen.append((f, box))
        return mc.maximize_boxes(f, box, grid_nodes)

    monkeypatch.setattr(th, "maximize_boxes", record)
    th.estranged_constants()
    return seen[0]


def theory_objectives(monkeypatch):
    """(f, box) of the four estranged kernels, each a column of the kernel
    estranged_constants passes to maximize_boxes, and of
    estranged_constant_reduced, as theory passes it to maximize_box."""
    f, box = stacked_estranged(monkeypatch)
    seen = [(lambda x, j=j: f(x)[:, j], box) for j in range(4)]

    def record(f, box, grid_nodes=65):
        seen.append((f, box))
        return mc.maximize_box(f, box, grid_nodes)

    monkeypatch.setattr(th, "maximize_box", record)
    th.estranged_constant_reduced()
    return seen


def plateau(x):
    return -np.max(np.abs(x - 0.3), axis=1).round(1)


ORACLE_CASES = [
    (lambda x: -x[:, 0] ** 2 - x[:, 1] ** 2, [(0.0, 2.0), (-1.0, 1.0)]),
    (lambda x: np.sin(3 * x[:, 0]) * np.cos(2 * x[:, 1]) + 0.1 * x[:, 0],
     [(-2.0, 2.0), (-2.0, 2.0)]),
    (lambda x: np.exp(-x[:, 0] ** 2) * np.cos(3 * x[:, 1]),
     [(0.0, 2.0), (-1.0, 1.0)]),
    (lambda x: np.sin(5 * x[:, 0]) * np.exp(-x[:, 0] ** 2), [(-2.0, 2.0)]),
    # varies at every scale: two of its starts stop at maxiter
    (lambda x: np.sin(1e15 * x[:, 0]), [(0.5, 1.0)]),
    (plateau, [(-1.0, 1.0), (0.0, 1.0), (-0.5, 0.5)]),
    (lambda x: np.full(len(x), 4.25), [(0.0, 1.0), (0.0, 1.0)]),
    (lambda x: np.full(len(x), -1.0), [(-1.0, 0.0)] * 3),
]


def test_lockstep_refinement_matches_sequential_scipy(monkeypatch):
    # value, argmax and refinements are bitwise those of one scipy
    # Nelder-Mead run per start, on the theory's kernels and on smooth,
    # one-dimensional, everywhere-oscillating, non-smooth and constant
    # objectives
    cases = theory_objectives(monkeypatch)
    assert len(cases) == 5
    for f, box in cases + ORACLE_CASES:
        res = mc.maximize_box(f, box)
        (value, argmax, refinements), _ = sequential_maximize_box(f, box)
        assert np.float64(res.value).tobytes() == np.float64(value).tobytes()
        assert res.argmax.tobytes() == argmax.tobytes()
        assert res.refinements == refinements


def test_oracle_cases_take_shrink_steps():
    # a step without a shrink evaluates at most two points, so more
    # evaluations than (dim + 1) per start plus two per later iteration
    # means the non-smooth and constant cases reach the shrink branch
    for f, box in ORACLE_CASES[5:]:
        (_, _, refinements), evaluations = sequential_maximize_box(f, box)
        starts = mc.REFINE_STARTS
        assert evaluations > starts * (len(box) + 1) \
            + 2 * (refinements - starts)


def grid_points(box, grid_nodes=65):
    axes = [np.linspace(lo, hi, grid_nodes) for lo, hi in box]
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")],
                    axis=1)


def test_start_selection_matches_the_full_sort(monkeypatch):
    # the partition picks the starts only where the REFINE_STARTS + 1
    # largest grid values are distinct; elsewhere the sort's order of ties
    # decides: in (-, -) and (+, +) nine grid points reach the
    # eighth-largest value, and a plateau, a constant and NaNs tie too
    f, box = stacked_estranged(monkeypatch)
    columns = list(f(grid_points(box)).T)
    plateau_box = ORACLE_CASES[5][1]
    noisy = np.random.default_rng(4).standard_normal(4225)
    noisy[[7, 300, 4000]] = np.nan
    columns += [plateau(grid_points(plateau_box)), np.full(4225, 4.25), noisy,
                np.random.default_rng(5).standard_normal(4225)]
    distinct = []
    for vals in columns:
        top = np.sort(vals)[::-1][:mc.REFINE_STARTS + 1]
        distinct.append(bool(np.all(np.isfinite(top))
                             and np.all(np.diff(top) < 0)))
        want = np.argsort(vals)[::-1][:mc.REFINE_STARTS]
        assert np.array_equal(mc._refine_starts(vals), want)
    assert distinct == [False, True, True, False, False, False, False, True]


def test_maximize_boxes_matches_one_call_per_column(monkeypatch):
    # K stacked objectives refine as K separate maximize_box calls would,
    # with a block cap that splits every grid into many calls of f
    groups = [stacked_estranged(monkeypatch) + (4,)]
    by_box = {}
    for g, box in ORACLE_CASES:
        by_box.setdefault(repr(box), (box, []))[1].append(g)
    for box, fs in by_box.values():
        groups.append((lambda x, fs=fs: np.stack([g(x) for g in fs], axis=1),
                       box, len(fs)))
    assert sorted(k for _, _, k in groups) == [1] * 6 + [2, 4]
    separate = [[mc.maximize_box(lambda x, f=f, j=j: f(x)[:, j], box)
                 for j in range(k)] for f, box, k in groups]
    monkeypatch.setattr(mc, "GRID_BLOCK", 50)
    for (f, box, k), want in zip(groups, separate):
        got = mc.maximize_boxes(f, box)
        assert len(got) == k
        for a, b in zip(got, want):
            assert np.float64(a.value).tobytes() \
                == np.float64(b.value).tobytes()
            assert a.argmax.tobytes() == b.argmax.tobytes()
            assert (a.refinements, a.grid_resolution) \
                == (b.refinements, b.grid_resolution)
