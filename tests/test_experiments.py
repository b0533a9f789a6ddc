import math

import numpy as np
import pytest

from gpoly import experiments as ex
from gpoly import geometry
from gpoly import theory as th
from gpoly.mathcore import simplex_volume
from gpoly.sampling import (RngStream, _truncated_coords, gaussian_point_set,
                            stream)


# -------------------------------------------------------------------- mc_run

def _zero(s, row):
    row[:] = 0.0


def test_mc_run_constant():
    def one(s, row):
        row[0] = 1.0

    est = ex.mc_run(one, trials=1000, master_seed=0, kernel=lambda b: b,
                    row_shape=(1,))
    assert est.mean == 1.0
    assert est.variance == 0.0
    assert est.std_error == 0.0
    assert est.ci95 == (1.0, 1.0)


def test_mc_run_standard_normal_mean():
    est = ex.mc_run(ex._fill_normal, trials=1_000_000, master_seed=1,
                    kernel=lambda b: b, row_shape=(1,))
    assert abs(est.mean) <= 3e-3
    assert abs(est.variance - 1.0) <= 0.01
    assert abs(est.std_error - math.sqrt(est.variance / est.trials)) <= 1e-15


def test_mc_run_matches_per_trial_reference():
    # three chunks, the last one partial: trial i fills its (2, 3) row from
    # stream(9, i) as fresh draws would, and the chunks merge by the tree
    def fill(s, row):
        s.standard_normal(out=row[0])
        s.uniform(out=row[1])

    def kernel(block):
        return (block[:, 0] ** 2 + block[:, 1]).sum(axis=1)

    def reference(s):
        return float((s.standard_normal(3) ** 2 + s.uniform(3)).sum())

    trials = 2 * ex.CHUNK + 300
    est = ex.mc_run(fill, trials, 9, kernel, row_shape=(2, 3))
    xs = np.array([reference(stream(9, i)) for i in range(trials)])
    assert abs(est.mean - xs.mean()) <= 1e-12 * abs(xs.mean())
    assert abs(est.variance - xs.var(ddof=1)) <= 1e-12 * xs.var(ddof=1)
    again = ex.mc_run(fill, trials, 9, kernel, row_shape=(2, 3))
    assert (again.mean, again.variance) == (est.mean, est.variance)


def test_mc_run_kernel_maps_blocks():
    seen = []

    def kernel(block):
        seen.append(block.shape)
        return block.sum(axis=1)

    def total(s, row):
        row[0] = s.standard_normal(3).sum()

    est = ex.mc_run(ex._fill_normal, trials=5000, master_seed=4,
                    kernel=kernel, row_shape=(3,))
    ref = ex.mc_run(total, trials=5000, master_seed=4, kernel=lambda b: b,
                    row_shape=(1,))
    assert abs(est.mean - ref.mean) <= 1e-12
    assert abs(est.variance - ref.variance) <= 1e-12
    assert max(t for t, _ in seen) == ex.SUB_BLOCK
    assert sum(t for t, _ in seen) == 5000


def test_mc_run_kernel_shape_checked():
    with pytest.raises(ValueError):
        ex.mc_run_vector(ex._fill_normal, 3, trials=10, master_seed=0,
                         kernel=lambda block: block, row_shape=(2,))


def test_mc_run_vector_matches_scalar_runs():
    def vec_trial(s, row):
        z = s.standard_normal()
        row[:] = z, z * z

    def scalar(s, row):
        row[0] = s.standard_normal()

    vec = ex.mc_run_vector(vec_trial, 2, trials=5000, master_seed=3,
                           kernel=lambda b: b, row_shape=(2,))
    sca = ex.mc_run(scalar, trials=5000, master_seed=3, kernel=lambda b: b,
                    row_shape=(1,))
    assert vec[0].mean == sca.mean
    assert vec[0].variance == sca.variance


def test_mc_run_propagates_trial_index():
    def flaky(s, row):
        if s.stream_id == 137:
            raise RuntimeError("boom")
        row[0] = 0.0

    with pytest.raises(ex.TrialError) as err:
        ex.mc_run(flaky, trials=1000, master_seed=0, kernel=lambda b: b,
                  row_shape=(1,))
    assert err.value.trial_index == 137


def test_mc_run_filled_rows_match_returned_rows():
    # three chunks, the last one partial: draws made in place with out=
    # equal fresh draws copied into the row
    def fill(s, row):
        s.standard_normal(out=row[0])
        s.uniform(out=row[1])

    def copy(s, row):
        row[:] = np.stack((s.standard_normal(3), s.uniform(3)))

    def kernel(block):
        return block.sum(axis=(1, 2))

    filled = ex.mc_run(fill, 2 * ex.CHUNK + 300, 6, kernel, row_shape=(2, 3))
    returned = ex.mc_run(copy, 2 * ex.CHUNK + 300, 6, kernel,
                         row_shape=(2, 3))
    assert filled.as_dict() == returned.as_dict()


def test_mc_run_fill_error_names_the_trial():
    def fill(s, row):
        if s.stream_id == ex.CHUNK + 5:
            raise RuntimeError("boom")
        s.standard_normal(out=row)

    with pytest.raises(ex.TrialError) as err:
        ex.mc_run(fill, 2 * ex.CHUNK, 0, lambda b: b.sum(axis=1),
                  row_shape=(2,))
    assert err.value.trial_index == ex.CHUNK + 5


def test_mc_run_needs_two_trials():
    with pytest.raises(ValueError):
        ex.mc_run(_zero, trials=1, master_seed=0, kernel=lambda b: b,
                  row_shape=(1,))


def test_kernel_row_error_names_the_trial():
    cause = geometry.DegeneracyError((0, 1), 2, row=5)

    def kernel(block):
        raise cause

    with pytest.raises(ex.TrialError) as err:
        ex.mc_run(_zero, trials=5000, master_seed=0, kernel=kernel,
                  row_shape=(1,))
    assert err.value.trial_index == 5
    assert err.value.__cause__ is cause


def test_welford_merge_matches_numpy():
    rng = np.random.default_rng(8)
    xs = rng.standard_normal(10_000) * 3.0 + 2.0

    def fill(s, row):
        row[0] = xs[s.stream_id]

    est = ex.mc_run(fill, trials=len(xs), master_seed=0, kernel=lambda b: b,
                    row_shape=(1,))
    assert abs(est.mean - xs.mean()) <= 1e-12
    assert abs(est.variance - xs.var(ddof=1)) <= 1e-10


# ------------------------------------------------------------- k-facet MCs

def test_kfacet_mc_forced_values():
    est = ex.kfacet_expectation_mc(3, 1, 0, trials=200, master_seed=5)
    assert est.mean == 2.0 and est.variance == 0.0
    est = ex.kfacet_expectation_mc(5, 4, 0, trials=200, master_seed=5)
    assert est.mean == 5.0 and est.variance == 0.0


def test_kfacet_mc_matches_exact():
    est = ex.kfacet_expectation_mc(5, 2, 1, trials=20_000, master_seed=21)
    exact = th.kfacet_expectation_exact(5, 2, 1)
    assert abs(est.mean - exact) <= 3 * est.std_error


def test_kfacet_profile_mc_symmetry():
    ests = ex.kfacet_profile_expectation_mc(6, 2, trials=500, master_seed=2)
    means = [e.mean for e in ests]
    assert means == means[::-1]  # e_k = e_{n-d-k} holds per instance


def test_fixed_subset_probability():
    est = ex.fixed_subset_kfacet_probability_mc(5, 4, 0, trials=500,
                                                master_seed=4)
    assert est.mean == 1.0 and est.variance == 0.0
    est = ex.fixed_subset_kfacet_probability_mc(3, 1, 0, trials=50_000,
                                                master_seed=4)
    assert abs(est.mean - 2.0 / 3.0) <= 3 * est.std_error


def test_fixed_subset_has_no_subset_cap():
    # one subset per trial, although C(30, 10) is past the enumeration cap
    est = ex.fixed_subset_kfacet_probability_mc(30, 10, 5, trials=4096,
                                                master_seed=0)
    exact = th.kfacet_probability_exact(30, 10, 5)
    assert abs(est.mean - exact) <= 3 * est.std_error


def test_reduced_probability():
    est = ex.reduced_kfacet_probability_mc(5, 4, 0, trials=500, master_seed=6)
    assert est.mean == 1.0
    est = ex.reduced_kfacet_probability_mc(3, 1, 0, trials=50_000,
                                           master_seed=6)
    assert abs(est.mean - 2.0 / 3.0) <= 3 * est.std_error


def test_reduced_profile_columns_match_per_k_runs():
    # each column equals the scalar run of its own k on freshly drawn rows,
    # so `kfacets reduced --all-k` prints what the per-k runs printed
    n, d, trials, seed = 10, 2, 20_000, 5
    m = n - d
    profile = ex.reduced_kfacet_profile_probability_mc(n, d, trials, seed)
    assert len(profile) == m + 1
    for k in range(m + 1):
        def kernel(z, k=k):
            above = (z[:, 1:] > z[:, :1] * (1.0 / math.sqrt(d))).sum(axis=1)
            return (above == k) | (above == m - k)

        def fresh(s, row):
            row[:] = s.standard_normal(m + 1)

        alone = ex.mc_run(fresh, trials, seed, kernel, row_shape=(m + 1,))
        assert profile[k].as_dict() == alone.as_dict()
        assert ex.reduced_kfacet_probability_mc(
            n, d, k, trials, seed).as_dict() == alone.as_dict()


def _exact_midpoint(x):
    """Round points 0 and 1 of x to multiples of 2^-20, in place, and
    return their midpoint, which then lies exactly on their line."""
    x[:2] = np.round(x[:2] * 2.0 ** 20) / 2.0 ** 20
    return 0.5 * (x[0] + x[1])


def test_fixed_subset_on_band_row_names_the_trial(monkeypatch):
    # trial 4096 + 137 (row 137 of the second chunk's first block) puts
    # point 2 at the midpoint of points 0 and 1, exactly on their line
    bad = ex.CHUNK + 137
    plain = RngStream.standard_normal

    def draw(self, size=None, out=None):
        out = plain(self, size, out)
        if self.stream_id == bad:
            out[2] = _exact_midpoint(out)
        return out

    monkeypatch.setattr(RngStream, "standard_normal", draw)
    with pytest.raises(ex.TrialError) as err:
        ex.fixed_subset_kfacet_probability_mc(5, 2, 0, trials=2 * ex.CHUNK,
                                              master_seed=3)
    assert err.value.trial_index == bad
    cause = err.value.__cause__
    assert isinstance(cause, geometry.DegeneracyError)
    assert cause.subset == (0, 1) and cause.point_index == 2


def _spoil(stream_id, point, value):
    """A standard_normal that rewrites one point of one trial's draw."""
    plain = RngStream.standard_normal

    def draw(self, size=None, out=None):
        out = plain(self, size, out)
        if self.stream_id == stream_id:
            out[point] = value(out)
        return out

    return draw


@pytest.mark.parametrize("run, n, point, value, error, subset, point_index", [
    # point 2 exactly on the line through points 0 and 1
    (lambda: ex.kfacet_expectation_mc(5, 2, 1, 2 * ex.CHUNK, 3), 5, 2,
     lambda x: _exact_midpoint(x), geometry.DegeneracyError, (0, 1), 2),
    # point 1 on top of point 0: only the SVD fallback sees the dependence
    (lambda: ex.pair_facet_probability_mc(2, 2 * ex.CHUNK, 3), 4, 1,
     lambda x: x[0], geometry.DegeneracyError, (0, 1), None),
])
def test_enumeration_degenerate_row_names_the_trial(
        monkeypatch, run, n, point, value, error, subset, point_index):
    bad = ex.CHUNK + 137
    monkeypatch.setattr(RngStream, "standard_normal",
                        _spoil(bad, point, value))
    with pytest.raises(ex.TrialError) as err:
        run()
    assert err.value.trial_index == bad
    cause = err.value.__cause__
    assert type(cause) is error and cause.subset == subset
    assert getattr(cause, "point_index", None) == point_index
    # the same error as the trial's point set alone
    coords = stream(3, bad).standard_normal((n, 2))
    with pytest.raises(error) as alone:
        geometry.facet_mask(coords, geometry.subset_array(n, 2))
    assert str(alone.value) == str(cause)


def test_reduction_triangulation_small():
    rep = ex.verify_kfacet_reduction(5, 2, 1, trials_full=20_000,
                                     trials_reduced=100_000, master_seed=13)
    assert rep.passed
    assert abs(rep.details["full_vs_exact"]) <= 3


def test_grouped_reductions_match_stand_alone_runs():
    # every case reads its columns of the shared runs: (5, 2) shares its
    # full leg between k = 0 and 1, and m = 3 its reduced run between d = 2
    # and 3; each estimate is bitwise that of the per-case scalar run
    trials, seed = 2 * ex.CHUNK + 17, 21
    cases = [(5, 2, 0), (5, 2, 1), (6, 3, 0), (8, 4, 2)]
    grouped = ex.verify_kfacet_reductions(cases, trials, trials, seed)
    assert [r.name for r in grouped] == \
        [f"kfacet_reduction[n={n},d={d},k={k}]" for n, d, k in cases]
    for rep, (n, d, k) in zip(grouped, cases):
        assert rep.as_dict() == ex.verify_kfacet_reduction(
            n, d, k, trials, trials, seed).as_dict()
        first = geometry.subset_array(d, d)
        full = ex.mc_run(ex._fill_normal, trials, seed,
                         lambda x: geometry.profile_counts(x, first)[:, k],
                         row_shape=(n, d))
        assert rep.estimate.as_dict() == full.as_dict()
        m = n - d

        def reduced_kernel(z):
            above = (z[:, 1:] > z[:, :1] * (1.0 / math.sqrt(d))).sum(axis=1)
            return (above == k) | (above == m - k)

        reduced = ex.mc_run(ex._fill_normal, trials, seed, reduced_kernel,
                            row_shape=(m + 1,))
        assert rep.details["reduced_estimate"] == reduced.as_dict()


def test_gaussian_simplex_reports_match_stand_alone_runs():
    # both reports come from one run; each estimate is bitwise that of its
    # own width-1 run on the same rows
    trials, seed = 2 * ex.CHUNK + 17, 22
    for d in (1, 3):
        blaschke, volume = ex.verify_gaussian_simplex(d, trials, seed)
        assert blaschke.as_dict() == \
            ex.verify_blaschke(d, trials, seed).as_dict()
        assert volume.as_dict() == \
            ex.verify_simplex_volume(d, trials, seed).as_dict()
        square = ex.mc_run(ex._fill_normal, trials, seed,
                           lambda x: simplex_volume(x) ** 2,
                           row_shape=(d + 1, d))
        plain = ex.mc_run(ex._fill_normal, trials, seed, simplex_volume,
                          row_shape=(d + 1, d))
        assert blaschke.estimate.as_dict() == square.as_dict()
        assert volume.estimate.as_dict() == plain.as_dict()


def test_subset_cap_enforced():
    with pytest.raises(ex.ResourceCapError):
        ex.kfacet_expectation_mc(30, 10, 0, trials=10, master_seed=0)


def _full(fn):
    return lambda ps: fn(ps.coords, geometry.subset_array(ps.n, ps.d))


GATED = {
    "profile_counts": lambda ps: geometry.profile_counts(ps.coords),
    "facet_set": geometry.facet_set,
    "kfacet_profile": geometry.kfacet_profile,
    "facet_mask": _full(geometry.facet_mask),
    "signed_distances": _full(geometry.signed_distances),
    "general_position_check": geometry.general_position_check,
    "kfacet_profile_expectation_mc":
        lambda ps: ex.kfacet_profile_expectation_mc(ps.n, ps.d, 2, 1),
}


@pytest.mark.parametrize("n, d", [(1000, 1), (250, 2)])
@pytest.mark.parametrize("name", list(GATED))
def test_the_gate_refuses_a_table_past_the_subset_cap(name, n, d,
                                                      monkeypatch):
    # C(n, d) subsets fit the cap, but their C(n, d + 1) sets do not: every
    # entry point refuses before the table is built or a point is drawn
    draws = []
    monkeypatch.setattr(ex, "_fill_normal", lambda s, row: draws.append(1))
    ps = gaussian_point_set(stream(4, 0), n, d)
    before = geometry._orientation_table.cache_info()
    with pytest.raises(geometry.ResourceCapError,
                       match=rf"^C\({n}, {d + 1}\) = {math.comb(n, d + 1)} "
                       rf"exceeds the subset cap {geometry.SUBSET_CAP}$"):
        GATED[name](ps)
    assert geometry._orientation_table.cache_info() == before
    assert draws == []


def test_the_gate_admits_the_full_20_10_list():
    # (20, 10): C(20, 10) = 184,756 subsets in C(20, 11) = 167,960 sets
    subsets = geometry._check_subsets(20, 10, geometry.subset_array(20, 10))
    assert len(subsets) == 184_756 and len(subsets.table[0]) == 167_960
    with pytest.raises(ex.ResourceCapError, match=r"C\(21, 10\) = 352716"):
        geometry.subset_array(21, 10)


def test_the_gate_bounds_one_subset_by_its_outside_points():
    at_cap = geometry._check_subsets(geometry.SUBSET_CAP + 1, 1, [[0]])
    assert len(at_cap.table[0]) == geometry.SUBSET_CAP
    with pytest.raises(ex.ResourceCapError):
        geometry._check_subsets(geometry.SUBSET_CAP + 2, 1, [[0]])
    assert ex.ResourceCapError is geometry.ResourceCapError


# ------------------------------------------------------------ estranged MCs

def test_pair_facet_probability_d1_is_one():
    est = ex.pair_facet_probability_mc(1, trials=1000, master_seed=7)
    assert est.mean == 1.0 and est.variance == 0.0


def test_estranged_consistency_d2():
    n_est = ex.estranged_expectation_mc(2, trials=40_000, master_seed=14)
    p_est = ex.pair_facet_probability_mc(2, trials=40_000, master_seed=15)
    pairs = math.comb(4, 2) / 2  # 3 complementary partitions
    se = math.sqrt(n_est.std_error ** 2 + (pairs * p_est.std_error) ** 2)
    assert abs(n_est.mean - pairs * p_est.mean) <= 3 * se
    assert 0.0 < n_est.mean <= 3.0


def test_estranged_cap():
    with pytest.raises(ex.ResourceCapError):
        ex.estranged_expectation_mc(9, trials=10, master_seed=0)
    with pytest.raises(ex.ResourceCapError):
        ex.pair_facet_probability_mc(11, trials=10, master_seed=0)


# ------------------------------------------------------------ verifications

def test_verify_blaschke_gaussian():
    for d in (1, 3):
        rep = ex.verify_blaschke(d, trials=30_000, master_seed=11)
        assert rep.passed
        assert abs(rep.theory - (d + 1) / math.factorial(d)) <= 1e-15


def test_verify_blaschke_uniform_cube():
    rep = ex.verify_blaschke(2, trials=30_000, master_seed=12,
                             distribution="uniform-cube")
    assert rep.passed
    assert abs(rep.theory - 1.0 / 96.0) <= 1e-15  # (1/144) * 3 / 2!


def test_verify_blaschke_unknown_distribution():
    with pytest.raises(ValueError):
        ex.verify_blaschke(2, 100, 0, distribution="cauchy")


def test_verify_simplex_volume():
    # seed 13 happens to land at z = +3.06 for d = 1 (the ~0.3% false-failure
    # rate of a 3-sigma gate); fixed-seed tests pin a seed inside the band
    for d in (1, 2, 6):
        rep = ex.verify_simplex_volume(d, trials=30_000, master_seed=23)
        assert rep.passed, rep.as_dict()


def test_verify_truncated_bound():
    for d, t in ((3, 0.0), (5, 0.5), (4, 40.0)):
        rep = ex.verify_truncated_bound(d, t, trials=5000, master_seed=14)
        assert rep.passed
        assert rep.estimate.mean > rep.theory  # bound is loose in practice


def _rejection_estimate(d, t, trials, seed):
    # every trial's d points from the rejection passes alone
    return ex.mc_run(lambda s, row: _truncated_coords(s, row, t), trials,
                     seed, simplex_volume, row_shape=(d, d - 1))


def _assert_same_estimate(got, want):
    assert got.mean == want.mean
    assert got.variance == want.variance
    assert got.std_error == want.std_error


def _count_fallbacks(monkeypatch):
    calls = []

    def counted(s, out, t):
        calls.append(len(out))
        return _truncated_coords(s, out, t)

    monkeypatch.setattr(ex, "_truncated_coords", counted)
    return calls


@pytest.mark.parametrize("d", range(2, 10))
@pytest.mark.parametrize("t", [0.0, 0.5, 2.0, 40.0, math.inf])
def test_truncated_buffer_matches_rejection_draws(d, t):
    # the first d accepted rows of one buffered draw are the rows the
    # rejection passes keep, so every statistic is bitwise the same
    rep = ex.verify_truncated_bound(d, t, trials=700, master_seed=3)
    _assert_same_estimate(rep.estimate, _rejection_estimate(d, t, 700, 3))


def test_truncated_short_buffer_continues_the_stream(monkeypatch):
    # at t = 0 a few buffers hold fewer than d accepted rows; the fallback
    # tops them up from where the buffer stopped
    calls = _count_fallbacks(monkeypatch)
    rep = ex.verify_truncated_bound(3, 0.0, trials=5000, master_seed=14)
    assert calls and all(1 <= rows <= 3 for rows in calls)
    _assert_same_estimate(rep.estimate, _rejection_estimate(3, 0.0, 5000, 14))


def test_truncated_bound_draws_once_per_trial(monkeypatch):
    # one Gaussian fill per trial when no buffer falls short
    fallbacks = _count_fallbacks(monkeypatch)
    fills = []
    draw = RngStream.standard_normal

    def counted(self, size=None, out=None):
        fills.append(1)
        return draw(self, size, out)

    monkeypatch.setattr(RngStream, "standard_normal", counted)
    ex.verify_truncated_bound(5, 2.0, trials=3000, master_seed=9)
    assert not fallbacks
    assert len(fills) == 3000


def test_truncated_bound_at_infinite_t_equals_no_truncation():
    # Phi(inf) = 1 gives the buffer width of t = 40, where nothing is rejected
    for d in (2, 5, 8):
        inf = ex.verify_truncated_bound(d, math.inf, 2000, 21).estimate
        assert inf == ex.verify_truncated_bound(d, 40.0, 2000, 21).estimate


def test_verify_truncated_bound_refuses_d_before_t():
    for t in (0.0, -0.5, math.nan):
        with pytest.raises(ValueError, match="need d >= 2"):
            ex.verify_truncated_bound(1, t, 10, 0)


def test_verify_logconcave_families():
    for family in ex.LOGCONCAVE_FAMILIES:
        rep = ex.verify_logconcave_moment(family, trials=30_000,
                                          master_seed=15)
        assert rep.passed
        assert rep.details["ratio"] >= 0.125
    # closed-form anchors for the two analytic families
    uni = ex.verify_logconcave_moment("uniform", 50_000, 16)
    assert abs(uni.details["ratio"] - 0.5 * math.sqrt(3.0)) <= 0.01
    gau = ex.verify_logconcave_moment("gaussian", 50_000, 16)
    assert abs(gau.details["ratio"] - math.sqrt(2.0 / math.pi)) <= 0.01


def test_verify_logconcave_unknown_family():
    with pytest.raises(ValueError):
        ex.verify_logconcave_moment("exponential", 100, 0)


def test_verify_dot_density():
    for d in (3, 8):
        rep = ex.verify_dot_density(d, trials=30_000, master_seed=17)
        assert rep.passed
        assert abs(rep.details["moment2_theory"] - 1.0 / d) <= 1e-9


def test_verify_lp_limit_closed_form():
    rep = ex.verify_lp_limit((10, 100, 1000))
    assert rep.passed
    limit = 1.0 / math.sqrt(2 * math.pi)
    for p, value in zip(rep.details["p_values"], rep.details["values"]):
        closed = limit * (2 * math.pi) ** (0.5 / p) * p ** (-0.5 / p)
        assert abs(value - closed) <= 1e-9
    assert abs(rep.details["values"][0] - 0.3897) <= 1e-4
    assert abs(rep.details["values"][-1] - limit) <= 0.01


@pytest.mark.parametrize("p_values", [[], [0], [-1, 5], [math.nan, 10],
                                      [10, math.inf]])
def test_verify_lp_limit_refuses_bad_p_before_quadrature(monkeypatch,
                                                         p_values):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(ex, "integrate_1d", no_quadrature)
    with pytest.raises(ValueError, match="need finite p > 0"):
        ex.verify_lp_limit(p_values)


def test_verdict_rule():
    def report(zs, **kwargs):
        return ex._report("check", 0.0, None, zs, {}, **kwargs)

    assert report([-2.0, 2.0]).z == -2.0  # a tie in |z| keeps the first z
    assert report([2.0, -2.0, 1.0]).z == 2.0
    assert report([1.0, -3.5]).z == -3.5
    assert report([3.0, -3.0]).passed  # |z| <= threshold passes
    assert not report([1.0, -3.5]).passed
    assert report([1.0, -3.5], passed=True).passed  # passed= overrides
    assert not report([0.0], passed=False).passed
    empty = report([])
    assert empty.z is None and empty.passed
    assert empty.threshold == ex.Z_THRESHOLD
    strict = report([0.5], threshold=0.1)
    assert not strict.passed and strict.threshold == 0.1


# -------------------------------------------------------------- growth table

def test_growth_table_simplex_rows_are_exact():
    # alpha chosen so n = round(alpha d) = d + 1: every row is forced
    rows = ex.facet_growth_table(1.3, range(2, 4), trials=200, master_seed=18)
    for row in rows:
        assert row.n == row.d + 1
        assert row.mean == row.d + 1
        assert row.std_error == 0.0


def test_growth_table_trend_band():
    rows = ex.facet_growth_table(2.0, range(2, 8), trials=1000, master_seed=19)
    base = th.growth_base_kfacet(2.0, 0.0)
    roots = [row.root for row in rows]
    for row in rows:
        assert row.base == base
        assert 0.3 * base <= row.root <= 3.0 * base
    assert roots == sorted(roots)  # climbing toward the base on this range


def test_growth_table_middle_mode():
    rows = ex.facet_growth_table(2.0, range(2, 5), trials=2000,
                                 master_seed=20, k_mode="middle")
    base = th.growth_base_kfacet(2.0, 0.5)
    assert abs(base - 4.0) <= 1e-9
    for row in rows:
        assert 0.3 * base <= row.root <= 3.0 * base


def test_growth_rows_csv():
    import io
    rows = ex.facet_growth_table(1.3, range(2, 3), trials=100, master_seed=0)
    buf = io.StringIO()
    ex.growth_rows_to_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "d,n,mean,se,root,base"
    assert lines[1].startswith("2,3,3,")
