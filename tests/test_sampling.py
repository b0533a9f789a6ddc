import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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


# keys at and above 2**53 and 2**63, where a float64 key would round
_KEYS = st.one_of(st.integers(0, 2**64 - 1),
                  st.sampled_from([2**53 + 1, 2**63, 2**63 + 1,
                                   12345678901234567890, 2**64 - 1]))
# normals, uniforms, laplace draws and 32-bit halves left behind
_MIXES = st.tuples(*[st.integers(0, 5)] * 4)


def _fresh_generator(seed, stream_id):
    # a list key goes through float64 and would round keys above 2**53
    key = np.array([seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@pytest.mark.parametrize("in_place", [True, False])
@settings(deadline=None)
@given(resets=st.lists(st.tuples(_KEYS, _KEYS, _MIXES), min_size=1,
                       max_size=6))
def test_reset_draws_match_fresh_generators(in_place, resets):
    with pytest.MonkeyPatch.context() as mp:
        if not in_place:  # the layout check fails: the state setter loads
            mp.setattr(sp, "_in_place_reset_works", lambda: False)
        s = sp.stream(0, 0)
    assert (s._load.func is not setattr) == in_place
    for seed, sid, (normals, uniforms, laplaces, halves) in resets:
        s.standard_normal(normals)
        s.uniform(uniforms)
        s.generator.laplace(size=laplaces)
        s.generator.integers(0, 2**32, size=halves, dtype=np.uint32)
        s.reset(seed, sid)
        fresh = _fresh_generator(seed, sid)
        assert (s.master_seed, s.stream_id) == (seed, sid)
        assert np.array_equal(
            s.generator.integers(0, 2**32, size=3, dtype=np.uint32),
            fresh.integers(0, 2**32, size=3, dtype=np.uint32))
        assert np.array_equal(s.standard_normal(5), fresh.standard_normal(5))
        assert np.array_equal(s.uniform(3), fresh.random(3))
        assert np.array_equal(s.generator.laplace(size=2),
                              fresh.laplace(size=2))
        assert np.array_equal(s.generator.integers(0, 2**32, dtype=np.uint32),
                              fresh.integers(0, 2**32, dtype=np.uint32))


@pytest.mark.parametrize("in_place", [True, False])
def test_fill_rows_matches_per_trial_reset(in_place):
    # the rows of a block past the first chunk, each drawn after a reset to
    # its key, on the in-place load and on the state setter load
    with pytest.MonkeyPatch.context() as mp:
        if not in_place:
            mp.setattr(sp, "_in_place_reset_works", lambda: False)
        s = sp.stream(2**63 + 7, 0)
        ref = sp.stream(2**63 + 7, 0)
    assert (s._load.func is not setattr) == in_place

    def draw(st, row):  # a half-used buffer and a cached 32-bit half
        st.standard_normal(out=row[:3])
        st.uniform(out=row[3:5])
        row[5] = st.generator.laplace()
        row[6] = st.generator.integers(0, 2**32, dtype=np.uint32)

    first = 4096 + 517
    got = np.empty((40, 7))
    s.fill_rows(first, got, draw)
    want = np.empty_like(got)
    for j, row in enumerate(want):
        draw(ref.reset(2**63 + 7, first + j), row)
    assert np.array_equal(got, want)
    assert (s.master_seed, s.stream_id) == (2**63 + 7, first + 39)


def test_fill_rows_leaves_the_failing_row_keyed():
    def draw(st, row):
        if st.stream_id == 12:
            raise RuntimeError("boom")
        st.standard_normal(out=row)

    s = sp.stream(3, 0)
    with pytest.raises(RuntimeError):
        s.fill_rows(10, np.empty((5, 2)), draw)
    assert s.stream_id == 12


def test_layout_check_accepts_this_numpy():
    assert sp._in_place_reset_works()
    assert sp._in_place_reset_works.__wrapped__()


def _swap(a, b):
    real = sp._words_of

    def words_of(state):
        words = real(state)
        halves = words.view(np.uint32)
        halves[[a, b]] = halves[[b, a]]
        return words

    return words_of


@pytest.mark.parametrize("words_of", [
    _swap(12, 16),  # a key half and a counter half trade places
    _swap(10, 11),  # has_uint32 and uinteger trade places
    _swap(0, 1),    # buffer_pos in the other half of its word
])
def test_layout_check_refuses_a_wrong_layout(monkeypatch, words_of):
    monkeypatch.setattr(sp, "_words_of", words_of)
    assert not sp._in_place_reset_works.__wrapped__()


def test_layout_check_refuses_unplaced_words(monkeypatch):
    monkeypatch.setattr(sp, "_state_words", lambda bitgen: None)
    assert not sp._in_place_reset_works.__wrapped__()


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
    out = np.empty((100_000, 4))
    x1 = sp._truncated_coords(sp.stream(8, 0), out, 40.0)[:, 0]
    se = x1.std() / math.sqrt(len(x1))
    assert abs(x1.mean()) <= 3 * se


def test_truncated_at_zero_half_normal_moments():
    out = np.empty((100_000, 3))
    x1 = sp._truncated_coords(sp.stream(8, 1), out, 0.0)[:, 0]
    assert np.all(x1 <= 0.0)
    half_mean = math.sqrt(2.0 / math.pi)
    se = x1.std() / math.sqrt(len(x1))
    assert abs(x1.mean() + half_mean) <= 3 * se
    var_target = 1.0 - 2.0 / math.pi
    v = (x1 + half_mean) ** 2
    se_v = v.std() / math.sqrt(len(v))
    assert abs(x1.var() - var_target) <= 3 * se_v


def test_truncated_other_coordinates_stay_standard_normal():
    out = np.empty((100_000, 4))
    coords = sp._truncated_coords(sp.stream(8, 2), out, 0.0)
    for j in (1, 2, 3):
        col = coords[:, j]
        se = col.std() / math.sqrt(len(col))
        assert abs(col.mean()) <= 3 * se
        assert abs(col.var() - 1.0) <= 0.02


def _rejection_reference(s, count, d, t):
    # an allocating rejection loop: each pass draws the missing rows afresh
    # and keeps the accepted ones in order
    out = np.empty((count, d))
    got = 0
    while got < count:
        batch = s.standard_normal((count - got, d))
        acc = batch[batch[:, 0] <= t]
        take = min(len(acc), count - got)
        out[got:got + take] = acc[:take]
        got += take
    return out


@settings(deadline=None)
@given(count=st.integers(1, 12), d=st.integers(1, 6),
       t=st.floats(0.0, 3.0), seed=_KEYS, stream_id=_KEYS)
def test_truncated_fill_matches_rejection_reference(count, d, t, seed,
                                                    stream_id):
    s, ref = sp.stream(seed, stream_id), sp.stream(seed, stream_id)
    out = np.empty((count, d))
    assert sp._truncated_coords(s, out, t) is out
    assert np.array_equal(out, _rejection_reference(ref, count, d, t))
    # both streams stopped at the same place
    assert s.uniform() == ref.uniform()


def test_truncated_rejects_negative_t():
    # the truncated-bound check is the one entry point that takes t; a NaN
    # t would reject every row and never return
    for t in (-0.5, math.nan):
        with pytest.raises(ValueError):
            verify_truncated_bound(3, t, 10, 0)


def test_point_set_immutable_and_validated():
    ps = sp.PointSet.from_coords([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        ps.coords[0, 0] = 9.0
    with pytest.raises(ValueError):
        sp.PointSet.from_coords([[np.inf, 0.0]])
    with pytest.raises(ValueError):
        sp.PointSet(n=3, d=2, coords=np.zeros((2, 2)))
    # 1-D, 0-D and empty input, as a d = 1 CSV reads back with np.loadtxt
    for coords in ([1.0, 2.0], 3.0, [], np.loadtxt(["x1", "0.5", "1.5"],
                                                  skiprows=1)):
        with pytest.raises(ValueError, match="coords must be a 2-D array"):
            sp.PointSet.from_coords(coords)


def test_point_set_csv_round_trip(tmp_path):
    ps = sp.gaussian_point_set(sp.stream(77, 0), 50, 4)
    path = tmp_path / "pts.csv"
    with open(path, "w", newline="") as fh:
        ps.write_csv(fh)
    header = path.read_text().splitlines()[0]
    assert header == "x1,x2,x3,x4"
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back, ps.coords)  # 17 digits round-trip exactly
