import math

import numpy as np
import pytest
from scipy import stats

from gpoly import sampling as sp
from gpoly.experiments import verify_truncated_bound


def test_stream_determinism():
    a = sp.stream(12345, 6).uniform(1000)
    b = sp.stream(12345, 6).uniform(1000)
    assert np.array_equal(a, b)


def test_stream_reset_matches_fresh_stream():
    s = sp.stream(1, 0)
    s.uniform(257)  # desync the counter and buffer
    s.reset(99, 42)
    got = s.standard_normal(64)
    want = sp.stream(99, 42).standard_normal(64)
    assert np.array_equal(got, want)


def test_reset_after_mixed_draws_matches_fresh_stream():
    keys = np.random.default_rng(21).integers(0, 2**64, size=(20, 2),
                                              dtype=np.uint64)
    s = sp.stream(0, 0)
    for j, (seed, sid) in enumerate(keys):
        # leave a half-used buffer and a cached 32-bit half behind
        s.standard_normal(j % 5 + 1)
        s.uniform(j % 3)
        s.generator.laplace(size=j % 4)
        s.generator.integers(0, 2**32, size=j % 2 + 1, dtype=np.uint32)
        s.reset(int(seed), int(sid))
        fresh = sp.stream(int(seed), int(sid))
        assert np.array_equal(s.generator.integers(0, 2**32, size=3,
                                                   dtype=np.uint32),
                              fresh.generator.integers(0, 2**32, size=3,
                                                       dtype=np.uint32))
        assert np.array_equal(s.standard_normal(7), fresh.standard_normal(7))
        assert np.array_equal(s.uniform(5), fresh.uniform(5))


def test_distinct_streams_pass_two_sample_ks():
    a = sp.stream(7, 0).uniform(1_000_000)
    b = sp.stream(7, 1).uniform(1_000_000)
    assert stats.ks_2samp(a, b).pvalue >= 0.001


def test_uniform_mean():
    u = sp.stream(5, 3).uniform(1_000_000)
    assert abs(u.mean() - 0.5) <= 0.01


def test_gaussian_point_set_moments():
    ps = sp.gaussian_point_set(sp.stream(2, 0), 100_000, 10)
    flat = ps.coords.ravel()
    assert abs(flat.mean()) <= 0.004          # 3 sigma at 10^6 values is 0.003
    assert abs(flat.var() - 1.0) <= 0.006
    sq = (ps.coords ** 2).sum(axis=1)
    assert abs(sq.mean() - 10.0) <= 0.05  # 3 sigma of the chi^2_10 mean is 0.042


def test_gaussian_point_set_validation():
    with pytest.raises(ValueError):
        sp.gaussian_point_set(sp.stream(0, 0), 0, 3)
    with pytest.raises(ValueError):
        sp.gaussian_point_set(sp.stream(0, 0), 3, 0)


def test_gaussian_coordinates_anderson_darling():
    # fully specified N(0,1) case; 6.0 is the asymptotic alpha=0.001 point
    x = np.sort(sp.stream(31, 0).standard_normal(100_000))
    u = np.clip(stats.norm.cdf(x), 1e-300, 1 - 1e-16)
    i = np.arange(1, len(x) + 1)
    a2 = -len(x) - np.mean((2 * i - 1) * (np.log(u) + np.log1p(-u[::-1])))
    assert a2 <= 6.0


def test_truncated_no_truncation_proxy():
    x1 = sp._truncated_coords(sp.stream(8, 0), 100_000, 4, 40.0)[:, 0]
    se = x1.std() / math.sqrt(len(x1))
    assert abs(x1.mean()) <= 3 * se


def test_truncated_at_zero_half_normal_moments():
    x1 = sp._truncated_coords(sp.stream(8, 1), 100_000, 3, 0.0)[:, 0]
    assert np.all(x1 <= 0.0)
    half_mean = math.sqrt(2.0 / math.pi)
    se = x1.std() / math.sqrt(len(x1))
    assert abs(x1.mean() + half_mean) <= 3 * se
    var_target = 1.0 - 2.0 / math.pi
    v = (x1 + half_mean) ** 2
    se_v = v.std() / math.sqrt(len(v))
    assert abs(x1.var() - var_target) <= 3 * se_v


def test_truncated_other_coordinates_stay_standard_normal():
    coords = sp._truncated_coords(sp.stream(8, 2), 100_000, 4, 0.0)
    for j in (1, 2, 3):
        col = coords[:, j]
        se = col.std() / math.sqrt(len(col))
        assert abs(col.mean()) <= 3 * se
        assert abs(col.var() - 1.0) <= 0.02


def test_truncated_rejects_negative_t():
    # the truncated-bound check is the one entry point that takes t
    with pytest.raises(ValueError):
        verify_truncated_bound(3, -0.5, 10, 0)


def test_point_set_immutable_and_validated():
    ps = sp.PointSet.from_coords([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        ps.coords[0, 0] = 9.0
    with pytest.raises(ValueError):
        sp.PointSet.from_coords([[np.inf, 0.0]])
    with pytest.raises(ValueError):
        sp.PointSet(n=3, d=2, coords=np.zeros((2, 2)))


def test_point_set_csv_round_trip(tmp_path):
    ps = sp.gaussian_point_set(sp.stream(77, 0), 50, 4)
    path = tmp_path / "pts.csv"
    with open(path, "w", newline="") as fh:
        ps.write_csv(fh)
    header = path.read_text().splitlines()[0]
    assert header == "x1,x2,x3,x4"
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back, ps.coords)  # 17 digits round-trip exactly
