import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special
from scipy.stats import norm

from gpoly import mathcore as mc
from gpoly import theory as th
from gpoly.experiments import kfacet_expectation_mc


@pytest.fixture(scope="module")
def estranged():
    signs = [("-", "-"), ("+", "-"), ("-", "+"), ("+", "+")]
    return {s1 + s2: th.estranged_constant(s1, s2) for s1, s2 in signs}


@pytest.fixture(scope="module")
def reduced():
    return th.estranged_constant_reduced()


# ------------------------------------------------------------ binary entropy

def test_binary_entropy_values():
    assert th.binary_entropy(0.5) == 1.0
    assert th.binary_entropy(0.0) == 0.0
    assert th.binary_entropy(1.0) == 0.0
    expected = 2.0 - 0.75 * math.log2(3.0)
    assert abs(th.binary_entropy(0.25) - expected) <= 1e-12
    assert abs(th.binary_entropy(0.25) - 0.811278) <= 1e-6
    with pytest.raises(ValueError):
        th.binary_entropy(-0.1)
    with pytest.raises(ValueError):
        th.binary_entropy(1.1)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 1.0))
def test_binary_entropy_symmetry(r):
    assert abs(th.binary_entropy(r) - th.binary_entropy(1.0 - r)) <= 1e-12


# ------------------------------------------------------ exact k-facet values

def test_kfacet_probability_line_anchors():
    assert abs(th.kfacet_probability_exact(3, 1, 0) - 2.0 / 3.0) <= 1e-12
    assert abs(th.kfacet_probability_exact(3, 1, 1) - 1.0 / 3.0) <= 1e-12


def test_kfacet_probability_simplex_is_one():
    for d in (1, 2, 3, 4, 5, 6):
        assert abs(th.kfacet_probability_exact(d + 1, d, 0) - 1.0) <= 1e-11


def test_kfacet_probability_outside_its_error_band_raises(monkeypatch):
    # at n = 2, d = 1 the quadrature gives p an ulp past 1, well inside its
    # error estimate, and the clamp returns 1; a value past the estimate is
    # a fault of the quadrature and raises
    for d in (1, 2, 3):
        assert th.kfacet_probability_exact(d + 1, d, 0) == 1.0
    quad = mc.integrate_1d

    def inflated(by):
        def integrate(f, a, b, rel_tol):
            res = quad(f, a, b, rel_tol)
            return mc.QuadratureResult(res.value + by(res),
                                       res.abs_error_estimate,
                                       res.evaluations)
        return integrate

    monkeypatch.setattr(th, "integrate_1d",
                        inflated(lambda res: 0.5 * res.abs_error_estimate))
    assert th.kfacet_probability_exact(2, 1, 0) == 1.0
    monkeypatch.setattr(th, "integrate_1d",
                        inflated(lambda res: 1e-6 * res.value))
    with pytest.raises(mc.QuadratureError) as err:
        th.kfacet_probability_exact(2, 1, 0)
    assert err.value.value > 1.0 + err.value.abs_error_estimate > 1.0
    assert err.value.evaluations > 0


def test_kfacet_expectation_anchors():
    assert abs(th.kfacet_expectation_exact(3, 1, 0) - 2.0) <= 1e-9
    assert abs(th.kfacet_expectation_exact(3, 1, 1) - 1.0) <= 1e-9
    for d in (2, 3, 4):
        assert abs(th.kfacet_expectation_exact(d + 1, d, 0) - (d + 1)) <= 1e-9


def test_kfacet_expectation_against_simulation():
    est = kfacet_expectation_mc(5, 2, 1, trials=20_000, master_seed=606)
    exact = th.kfacet_expectation_exact(5, 2, 1)
    assert abs(est.mean - exact) <= 3 * est.std_error


def test_kfacet_log_expectation_consistency():
    for n, d, k in ((5, 2, 1), (12, 3, 4), (40, 10, 5)):
        log_e = th.kfacet_log_expectation_exact(n, d, k)
        assert math.isfinite(log_e)
        assert abs(math.exp(log_e) - th.kfacet_expectation_exact(n, d, k)) \
            <= 1e-12 * math.exp(log_e)


def test_kfacet_probability_sum_identity():
    # summing the per-subset probability over k double-counts each subset;
    # the balanced layer of an even n - d counts each of its subsets once.
    # At (1021, 1) the integrals fall below 1e-300 for most k.
    for n, d in ((5, 2), (6, 3), (8, 1), (9, 4), (1021, 1)):
        ps = [th.kfacet_probability_exact(n, d, k) for k in range(n - d + 1)]
        balanced = ps[(n - d) // 2] if (n - d) % 2 == 0 else 0.0
        assert abs(sum(ps) + balanced - 2.0) <= 1e-6


def kfacet_probability_scale_free(n, d, k):
    """p_k with log C(n-d, k) inside the exponent, so the integrand is of
    order 1 at its peak, and no absolute error floor (epsabs = 0)."""
    m = n - d
    lc = mc.log_binomial(m, k)
    ys = np.linspace(-th.INTEGRATION_HALF_WIDTH, th.INTEGRATION_HALF_WIDTH,
                     4801)
    peak = ys[np.argmax(k * special.log_ndtr(ys)
                        + (m - k) * special.log_ndtr(-ys) - 0.5 * d * ys * ys)]

    def integrand(y):
        return math.exp(lc + k * special.log_ndtr(y)
                        + (m - k) * special.log_ndtr(-y) - 0.5 * d * y * y)

    value = integrate.quad(integrand, -th.INTEGRATION_HALF_WIDTH,
                           th.INTEGRATION_HALF_WIDTH, points=[float(peak)],
                           epsabs=0.0, epsrel=1e-12, limit=400)[0]
    return (1.0 if 2 * k == m else 2.0) * math.sqrt(d / (2.0 * math.pi)) \
        * value


@pytest.mark.parametrize("m", [990, 1020, 1028, 1100])
@pytest.mark.parametrize("d", [1, 100])
def test_kfacet_probability_is_exact_or_raises_at_large_n(m, d):
    # past n - d of about 990 the integral without C(n-d, k) falls below
    # 1e-300, and past about 1030 C(n-d, k) itself overflows float64
    returned = 0
    for k in range(0, m + 1, m // 60):
        try:
            p = th.kfacet_probability_exact(m + d, d, k)
        except (ValueError, mc.QuadratureError):
            continue
        assert abs(p - kfacet_probability_scale_free(m + d, d, k)) <= 1e-9
        returned += 1
    assert returned >= 20


def kfacet_probability_two_calls(n, d, k):
    """kfacet_probability_exact as it was before the node memo, with two
    log Phi calls on numpy scalars in each integrand evaluation."""
    m = n - d

    def integrand(y):
        return math.exp(k * special.log_ndtr(y)
                        + (m - k) * special.log_ndtr(-y)
                        - 0.5 * d * y * y)

    quad = mc.integrate_1d(integrand, -th.INTEGRATION_HALF_WIDTH,
                           th.INTEGRATION_HALF_WIDTH, rel_tol=1e-11)
    scale = (1.0 if 2 * k == m else 2.0) * math.exp(mc.log_binomial(m, k)) \
        * math.sqrt(d / (2.0 * math.pi))
    return min(max(scale * quad.value, 0.0), 1.0)


def test_node_memo_keeps_every_probability():
    # every m of the exact-profile workload, at both ends of its range of
    # d: cold (the memo cleared before each integral), while the sweep
    # fills it, and warm, when no node misses it
    cases = [(d + m, d, k) for m in (21, 40, 61) for d in (2, 159)
             for k in range(m + 1)]
    memo = th._log_phi_pair
    cold = []
    for case in cases:
        memo.cache_clear()
        cold.append(th.kfacet_probability_exact(*case))
    memo.cache_clear()
    filling = [th.kfacet_probability_exact(*case) for case in cases]
    misses = memo.cache_info().misses
    warm = [th.kfacet_probability_exact(*case) for case in cases]
    info = memo.cache_info()
    assert info.misses == misses and info.currsize <= info.maxsize
    want = np.array([kfacet_probability_two_calls(*case) for case in cases])
    for got in (cold, filling, warm):
        assert np.array(got).tobytes() == want.tobytes()


def test_kfacet_input_validation():
    with pytest.raises(ValueError):
        th.kfacet_probability_exact(3, 3, 0)
    with pytest.raises(ValueError):
        th.kfacet_probability_exact(5, 2, 4)


# ----------------------------------------------------------------- c_alpha_r

def test_c_alpha_r_symmetric_point():
    res = th.c_alpha_r(2.0, 0.5)
    assert abs(res.value - 0.5 / math.sqrt(2 * math.pi)) <= 1e-10
    assert abs(res.argmax[0]) <= 1e-6
    assert abs(res.value - 0.1994711) <= 1e-7


def test_c_alpha_r_reflection_symmetry():
    for alpha, r in ((2.0, 0.2), (3.0, 0.0), (1.5, 0.35)):
        a = th.c_alpha_r(alpha, r)
        b = th.c_alpha_r(alpha, 1.0 - r)
        assert abs(a.value - b.value) <= 1e-10
        assert abs(a.argmax[0] + b.argmax[0]) <= 1e-5


def test_c_alpha_r_against_dense_grid_oracle():
    ys = np.linspace(-12.0, 12.0, 1_000_001)
    f = (1.0 - special.ndtr(ys)) * norm.pdf(ys)
    i = int(np.argmax(f))
    res = th.c_alpha_r(2.0, 0.0)
    assert res.value >= f[i]
    assert abs(res.value - f[i]) <= 1e-9
    assert abs(res.argmax[0] - ys[i]) <= 1e-3


def test_c_alpha_r_validation():
    with pytest.raises(ValueError):
        th.c_alpha_r(1.0, 0.5)
    with pytest.raises(ValueError):
        th.c_alpha_r(2.0, 1.5)


def scalar_maximize_1d(f, a, b, grid_nodes=2049):
    """The oracle: maximize_1d as it was, calling f on one float at a time."""
    xs = np.linspace(a, b, grid_nodes)
    fs = np.array([f(x) for x in xs], dtype=float)
    i = int(np.argmax(fs))
    best_x, best_f = float(xs[i]), float(fs[i])
    lo = float(xs[max(i - 1, 0)])
    hi = float(xs[min(i + 1, grid_nodes - 1)])
    gx, gf, iters = mc._golden_section_max(f, lo, hi, xtol=1e-12 * (b - a))
    if gf > best_f:
        best_x, best_f = float(gx), float(gf)
    return best_f, np.array([best_x]), iters


def scalar_c_objective(alpha, r):
    """c_alpha_r's objective as it was, one float at a time."""
    e1, e2 = r * (alpha - 1.0), (1.0 - r) * (alpha - 1.0)

    def objective(y):
        la = e1 * special.log_ndtr(y) if e1 != 0.0 else 0.0
        lb = e2 * special.log_ndtr(-y) if e2 != 0.0 else 0.0
        return math.exp(la + lb - 0.5 * y * y) / math.sqrt(2.0 * math.pi)

    return objective


def test_c_alpha_r_matches_scalar_maximizer(monkeypatch):
    # the batched objective and grid scan give bitwise the value, argmax
    # and refinements of the one-point-at-a-time maximizer, including
    # where the maximum underflows and c_alpha_r raises
    seen = []

    def record(f, a, b, grid_nodes=2049):
        seen.append(mc.maximize_1d(f, a, b, grid_nodes))
        return seen[-1]

    monkeypatch.setattr(th, "maximize_1d", record)
    rng = np.random.default_rng(20)
    pairs = [(a, r) for a in (1.1, 2.0, 6.0, 1e6) for r in (0.0, 0.5, 1.0)]
    pairs += [(2.5, 0.3), (1e300, 0.5)]
    pairs += [(float(a), float(r)) for a, r in
              zip(rng.uniform(1.1, 6.0, 12), rng.uniform(0.0, 1.0, 12))]
    for alpha, r in pairs:
        try:
            th.c_alpha_r(alpha, r)
        except ValueError:
            pass
        with np.errstate(over="ignore"):
            value, argmax, refinements = scalar_maximize_1d(
                scalar_c_objective(alpha, r), -th.INTEGRATION_HALF_WIDTH,
                th.INTEGRATION_HALF_WIDTH)
        res = seen.pop()
        assert np.float64(res.value).tobytes() == np.float64(value).tobytes()
        assert res.argmax.tobytes() == argmax.tobytes()
        assert res.refinements == refinements


def test_growth_base_exact_midpoint():
    assert abs(th.growth_base_kfacet(2.0, 0.5) - 4.0) <= 1e-9


def test_growth_base_facet_case():
    # 4 * sqrt(2 pi) * c(2, 0), with c from the dense-grid oracle
    ys = np.linspace(-12.0, 12.0, 1_000_001)
    c = float(np.max((1.0 - special.ndtr(ys)) * norm.pdf(ys)))
    target = 4.0 * math.sqrt(2 * math.pi) * c
    assert abs(th.growth_base_kfacet(2.0, 0.0) - target) <= 1e-7
    assert abs(th.growth_base_kfacet(2.0, 0.0) - 2.4409) <= 2e-3


def test_growth_base_symmetry():
    assert abs(th.growth_base_kfacet(2.5, 0.3)
               - th.growth_base_kfacet(2.5, 0.7)) <= 1e-9


# -------------------------------------------------------- estranged integrand

def estranged_kernel(rho1, rho2, w, s1, s2):
    """The (s1, s2) estranged kernel at one point: the last axis of the
    stacked kernels holds one column per sign pair."""
    return float(th._estranged_kernels(rho1, rho2, w, [(s1, s2)])[..., 0])


def test_estranged_integrand_at_origin():
    assert abs(estranged_kernel(0.0, 0.0, 0.0, "-", "-") - 0.25) <= 1e-15
    assert abs(estranged_kernel(0.0, 0.0, 0.0, "+", "+") - 0.25) <= 1e-15


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 5.0), st.floats(0.0, 5.0), st.floats(-0.99, 0.99))
def test_estranged_integrand_swap_symmetry(rho1, rho2, w):
    a = estranged_kernel(rho1, rho2, w, "+", "-")
    b = estranged_kernel(rho2, rho1, w, "-", "+")
    assert abs(a - b) <= 1e-14


def test_estranged_integrand_domain():
    with pytest.raises(ValueError):
        estranged_kernel(1.0, 1.0, 0.0, "x", "-")


# -------------------------------------------------------- estranged constants

def test_estranged_constant_minus_minus(estranged):
    assert abs(estranged["--"].value - 0.4424) <= 5e-4


def test_estranged_constant_mixed(estranged):
    assert abs(estranged["+-"].value - 0.355) <= 1e-3
    assert abs(estranged["+-"].value - estranged["-+"].value) <= 1e-9


def test_estranged_constant_plus_plus(estranged):
    assert abs(estranged["++"].value - 0.25) <= 1e-9


def test_estranged_minus_minus_dominates(estranged):
    top = estranged["--"].value
    for key in ("+-", "-+", "++"):
        assert top >= estranged[key].value


def test_estranged_reduced_agrees(estranged, reduced):
    assert abs(reduced.value - estranged["--"].value) <= 1e-6
    assert abs(reduced.value - 0.4424) <= 5e-4


def test_estranged_four_c(reduced):
    assert 1.7670 <= 4.0 * reduced.value <= 1.7722


def test_estranged_reduced_dominates_w0_slice(reduced):
    slice_max = mc.maximize_1d(
        lambda rho: np.exp(-rho * rho) * special.ndtr(rho) ** 2,
        0.0, 6.0)
    assert reduced.value >= slice_max.value - 1e-12


def test_estranged_constants_match_one_pair_calls(estranged):
    for got in th.estranged_constants():
        want = estranged[got.context["signs"]]
        assert np.float64(got.value).tobytes() \
            == np.float64(want.value).tobytes()
        assert got.argmax.tobytes() == want.argmax.tobytes()
        assert got.diagnostics.refinements == want.diagnostics.refinements


def test_constant_result_reproducible_at_argmax(estranged):
    res = estranged["--"]
    again = estranged_kernel(res.argmax[0], res.argmax[1],
                             res.argmax[2], "-", "-")
    assert abs(again - res.value) <= 1e-12 * res.value


def test_constant_record_shape(reduced):
    rec = reduced.as_record("estranged_reduced")
    assert set(rec) == {"name", "parameters", "value", "argmax",
                        "grid_resolution"}
    assert len(rec["argmax"]) == 2


# ------------------------------------------------------------ signed distance

def test_signed_distance_orthogonal():
    # orthogonal hyperplanes (w = 0): t21 = rho2 and t12 = rho1
    got = estranged_kernel(1.3, 0.7, 0.0, "-", "+")
    want = math.exp(-0.5 * (1.3 ** 2 + 0.7 ** 2)) * norm.cdf(0.7) \
        * norm.sf(1.3)
    assert abs(got - want) <= 1e-15


def test_signed_distance_zero_rho1():
    # rho1 = 0: t21 = rho2 / sqrt(1 - w^2) and t12 = -rho2 w / sqrt(1 - w^2)
    w, rho2 = 0.6, 2.0
    sq = math.sqrt(1 - w * w)
    want = math.exp(-0.5 * rho2 ** 2) * norm.cdf(rho2 / sq) \
        * norm.cdf(-rho2 * w / sq) * sq
    assert abs(estranged_kernel(0.0, rho2, w, "-", "-") - want) <= 1e-15


def _inside_distance(t_a, rho_a, t_b, rho_b, point):
    """Signed distance, inside line a, from its foot point to ``point``:
    positive when the halfspace of line b contains the foot point."""
    foot = rho_a * t_a  # closest point of line a to the origin
    dist = float(np.linalg.norm(point - foot))
    return dist if (t_b @ foot) < rho_b else -dist


def test_signed_distance_planar_geometry_oracle():
    # build two lines in the plane, intersect them explicitly, measure the
    # offsets t21 and t12 with explicit containment signs, and check the
    # ('-', '+') kernel exp(-(rho1^2 + rho2^2)/2) Phi(t21) (1 - Phi(t12))
    # sqrt(1 - w^2) built on them
    rng = np.random.default_rng(99)
    for _ in range(50):
        rho1, rho2 = rng.uniform(0.05, 2.0, size=2)
        ang = rng.uniform(0.1, math.pi - 0.1)
        w = math.cos(ang)
        t1 = np.array([1.0, 0.0])
        t2 = np.array([math.cos(ang), math.sin(ang)])
        point = np.linalg.solve(np.vstack([t1, t2]), [rho1, rho2])
        t21 = _inside_distance(t1, rho1, t2, rho2, point)
        t12 = _inside_distance(t2, rho2, t1, rho1, point)
        want = math.exp(-0.5 * (rho1 ** 2 + rho2 ** 2)) * norm.cdf(t21) \
            * norm.sf(t12) * math.sqrt(1 - w * w)
        got = estranged_kernel(rho1, rho2, w, "-", "+")
        assert abs(got - want) <= 1e-12


# ----------------------------------------------------------------- densities

def test_dot_density_d3_is_uniform():
    w = np.linspace(-1, 1, 9)
    assert np.allclose(th.dot_density(w, 3), 0.5, atol=1e-14)


def test_dot_density_normalization_and_moments():
    for d in range(2, 31):
        total = mc.integrate_1d(lambda w, d=d: th.dot_density(w, d),
                                -1.0, 1.0, rel_tol=1e-12)
        assert abs(total.value - 1.0) <= 1e-10
    for d in (2, 3, 8, 15):
        m2 = mc.integrate_1d(lambda w, d=d: w * w * th.dot_density(w, d),
                             -1.0, 1.0, rel_tol=1e-12)
        assert abs(m2.value - 1.0 / d) <= 1e-8


def test_dot_density_domain():
    with pytest.raises(ValueError):
        th.dot_density(1.5, 3)
    with pytest.raises(ValueError):
        th.dot_density(0.0, 1)


# ------------------------------------------------------------ simplex volumes

def test_gaussian_simplex_expected_volume_values():
    assert abs(th.gaussian_simplex_expected_volume(1)
               - 2.0 / math.sqrt(math.pi)) <= 1e-14
    assert abs(th.gaussian_simplex_expected_volume(2)
               - math.sqrt(3.0) / 2.0) <= 1e-14


def test_gaussian_simplex_volume_monte_carlo_cross_check():
    rng = np.random.default_rng(5150)
    vols = [mc.simplex_volume(rng.standard_normal((3, 2)))
            for _ in range(20_000)]
    se = np.std(vols) / math.sqrt(len(vols))
    assert abs(np.mean(vols)
               - th.gaussian_simplex_expected_volume(2)) <= 3 * se


def test_truncated_bound_value():
    # direct evaluation through an independent route (math.gamma)
    direct = (math.sqrt(1 - 2 / math.pi) * math.sqrt(2.0)
              / (2.0 ** 3.5 * math.gamma(1.5)))
    assert abs(th.truncated_simplex_lower_bound(2) - direct) <= 1e-14
    assert abs(th.truncated_simplex_lower_bound(2) - 0.0850) <= 5e-4


def test_truncated_bound_below_untruncated_mean():
    # the truncated mean bound cannot exceed the untruncated expectation of
    # the same simplex (d points in R^(d-1))
    for d in range(2, 21):
        untruncated = math.exp(0.5 * math.log(d) - 0.5 * (d - 1) * math.log(2)
                               - special.gammaln((d + 1) / 2.0))
        assert th.truncated_simplex_lower_bound(d) <= untruncated


def test_truncated_bound_subexponential_correction():
    # log(bound * (d/e)^(d/2)) stays o(d)
    ratios = []
    for d in (25, 50, 100, 200):
        log_corr = (math.log(th.truncated_simplex_lower_bound(d))
                    + 0.5 * d * (math.log(d) - 1.0))
        ratios.append(abs(log_corr) / d)
    assert ratios[-1] <= 0.05
    assert ratios == sorted(ratios, reverse=True)
