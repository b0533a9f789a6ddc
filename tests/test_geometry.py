import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpoly import geometry as geo
from gpoly.sampling import PointSet, gaussian_point_set, stream


def gauss(seed, n, d):
    return gaussian_point_set(stream(seed, 0), n, d)


SQUARE = PointSet.from_coords([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


# ------------------------------------------------------------- brute oracles

def brute_side_split(coords, subset):
    """Independent side counter: explicit hull normal via least squares."""
    pts = coords[list(subset)]
    d = coords.shape[1]
    if d == 1:
        normal, offset = np.array([1.0]), pts[0, 0]
    else:
        edges = pts[1:] - pts[0]
        _, _, vt = np.linalg.svd(edges)
        normal = vt[-1]
        offset = normal @ pts[0]
    rest = [i for i in range(len(coords)) if i not in set(subset)]
    vals = coords[rest] @ normal - offset
    tol = 1e-9 * max(1.0, np.abs(coords).max())
    return (int((vals < -tol).sum()), int((vals > tol).sum()),
            int((np.abs(vals) <= tol).sum()))


def brute_facets(coords, allow_on=False):
    """Facet list by definition: one open side empty, nothing on the hull."""
    n, d = coords.shape
    out = []
    for subset in itertools.combinations(range(n), d):
        below, above, on = brute_side_split(coords, subset)
        if on > 0 and not allow_on:
            raise AssertionError("degenerate input in strict oracle")
        if on == 0 and (below == 0 or above == 0):
            out.append(subset)
    return out


def brute_estranged_pairs(facets):
    return sum(1 for f, g in itertools.combinations(facets, 2)
               if not set(f) & set(g))


def graham_hull_vertex_count(coords):
    """Independent 2-D convex hull (lower/upper chains); edges == vertices."""
    pts = sorted(map(tuple, coords))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return len(lower) + len(upper) - 2


# -------------------------------------------------------------- hyperplanes

def test_hyperplane_simple():
    coords = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    dist = geo.signed_distances(coords, np.array([[0, 1]]))[0]
    assert np.allclose(dist[:2], 0.0, atol=1e-15)
    assert abs(abs(dist[2]) - 1.0 / math.sqrt(2.0)) <= 1e-12


def test_hyperplane_d1():
    coords = np.array([[-2.5], [1.0]])
    dist = geo.signed_distances(coords, np.array([[0], [1]]))
    assert np.allclose(np.abs(dist), [[0.0, 3.5], [3.5, 0.0]], atol=1e-15)


def test_hyperplane_contains_defining_points():
    subset = [1, 3, 4, 6]
    for seed in range(20):
        ps = gauss(seed, 8, 4)
        dist = geo.signed_distances(ps.coords, np.array([subset]))[0]
        scale = np.abs(ps.coords).max()
        assert np.max(np.abs(dist[subset])) <= 1e-9 * scale
        # the other points sit at their distance along the SVD unit normal
        pts = ps.coords[subset]
        normal = np.linalg.svd(pts[1:] - pts[0])[2][-1]
        want = np.abs((ps.coords - pts[0]) @ normal)
        assert np.allclose(np.abs(dist), want, rtol=1e-9, atol=1e-9 * scale)


def test_hyperplane_degenerate_subset():
    # collinear: the anchored system is singular, and the SVD reference
    # path finds the dependence
    ps = PointSet.from_coords([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                               [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(geo.DegenerateSubsetError) as err:
        geo.signed_distances(ps.coords, np.array([[0, 1, 2]]))
    assert err.value.subset == (0, 1, 2)


def test_offset_squared_is_chi_square_over_d():
    # d * rho^2, rho the distance of the origin to the hull of d Gaussian
    # points, has chi^2_1 moments
    d, trials = 3, 100_000
    pts = stream(123, 0).standard_normal((trials, d, d))
    block = np.concatenate([pts, np.zeros((trials, 1, d))], axis=1)
    rho = geo.signed_distances(block, np.array([[0, 1, 2]]))[:, 0, d]
    vals = d * rho ** 2
    se = vals.std() / math.sqrt(trials)
    assert abs(vals.mean() - 1.0) <= 3 * se


# -------------------------------------------------------------- side counts

def side_split(coords, subset):
    """(below, above) of one subset from the block side table, T = 1."""
    coords = np.asarray(coords, dtype=float)
    subsets = np.array([subset], dtype=np.intp)
    [(_, _, below)] = geo._side_table(coords[None], subsets)
    b = int(below[0, 0])
    return b, coords.shape[0] - len(subset) - b


def test_side_counts_line():
    assert side_split([[0.0], [1.0], [2.0]], (1,)) == (1, 1)


def test_side_counts_point_inside_triangle():
    coords = [[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [1.0, 1.0]]
    # hull edge of the outer triangle
    assert sorted(side_split(coords, (1, 2))) == [0, 2]


def test_side_counts_conservation():
    ps = gauss(5, 8, 3)
    for subset in itertools.combinations(range(8), 3):
        below, above, on = brute_side_split(ps.coords, subset)
        assert on == 0
        assert sorted(side_split(ps.coords, subset)) == sorted((below, above))


def test_side_counts_on_band_raises():
    coords = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.0, 0.0]]
    with pytest.raises(geo.DegeneracyError) as err:
        side_split(coords, (0, 1))
    assert err.value.subset == (0, 1) and err.value.point_index == 4


def test_signed_distances_block_matches_point_sets():
    subsets = geo.subset_array(6, 3)
    block = np.stack([gauss(seed, 6, 3).coords for seed in range(5)])
    # in point set 2 the hull of points 0, 1, 2 passes through the origin
    # (the midpoint of 0 and 1), which the anchored solve does not notice
    block[2, 1] = -block[2, 0]
    for coords in (block[[0, 1, 3, 4]], block):
        dist = geo.signed_distances(coords, subsets)
        assert dist.shape == (len(coords), len(subsets), 6)
        for got, pts in zip(dist, coords):
            want = geo.signed_distances(pts, subsets)
            assert np.allclose(np.abs(got), np.abs(want), rtol=1e-12,
                               atol=1e-12)


def test_on_band_hit():
    # the first on-band point in (point set, subset, point) order raises,
    # and a subset's own points never count
    subsets = geo.subset_array(5, 2)
    block = np.stack([gauss(seed, 5, 2).coords for seed in range(4)])
    block[2, 3] = 0.5 * (block[2, 0] + block[2, 1])  # on the line 0, 1
    block[3, 4] = 0.5 * (block[3, 0] + block[3, 1])
    with pytest.raises(geo.DegeneracyError) as err:
        geo.profile_counts(block)
    assert (err.value.row, err.value.subset, err.value.point_index) \
        == (2, (0, 1), 3)
    with pytest.raises(geo.DegeneracyError) as err:
        geo.facet_mask(block[3], subsets)
    assert (err.value.row, err.value.subset, err.value.point_index) \
        == (0, (0, 1), 4)
    assert geo.profile_counts(block[:2]).shape == (2, 4)


def test_block_errors_come_in_point_set_order():
    subsets = geo.subset_array(5, 2)
    block = np.stack([gauss(seed, 5, 2).coords for seed in range(4)])
    block[2, 1] = block[2, 0]  # a dependent subset, named by the SVD rule
    block[1, 4] = 0.5 * (block[1, 0] + block[1, 2])  # on-band, earlier row
    with pytest.raises(geo.DegeneracyError) as err:
        geo.facet_mask(block, subsets)
    assert (err.value.row, err.value.subset, err.value.point_index) \
        == (1, (0, 2), 4)
    for rows, row in ((block[2:], 0), (block[[0, 3, 2]], 2)):
        with pytest.raises(geo.DegenerateSubsetError) as err:
            geo.profile_counts(rows)
        assert (err.value.row, err.value.subset) == (row, (0, 1))


def test_block_counts_match_point_sets():
    # point set 2 has a hull through the origin; every row must count as
    # its T = 1 call
    block = np.stack([gauss(seed, 6, 3).coords for seed in range(5)])
    block[2, 1] = -block[2, 0]
    subsets = geo.subset_array(6, 3)
    profiles = geo.profile_counts(block, subsets)
    masks = geo.facet_mask(block, subsets)
    assert profiles.shape == (5, 4) and masks.shape == (5, 20)
    for coords, e, mask in zip(block, profiles, masks):
        assert np.array_equal(e, geo.profile_counts(coords, subsets))
        assert np.array_equal(mask, geo.facet_mask(coords, subsets))


def test_side_table_subset_chunks(monkeypatch):
    # with fewer pairs per call than subsets, subsets come in chunks and
    # point sets one at a time; counts must not change
    block = np.stack([gauss(seed, 9, 3).coords for seed in range(3)])
    want = geo.profile_counts(block)
    monkeypatch.setattr(geo, "_BLOCK", 10)
    pieces = list(geo._side_table(block, geo.subset_array(9, 3)))
    assert len(pieces) == 3 * 9
    assert np.array_equal(geo.profile_counts(block), want)


# ------------------------------------------------------------------ profiles

def test_profile_line():
    ps = PointSet.from_coords([[0.0], [1.0], [2.0]])
    assert geo.kfacet_profile(ps).e.tolist() == [2, 1, 2]


def test_profile_simplex():
    for d in (1, 2, 3, 4, 5):
        ps = gauss(d, d + 1, d)
        assert geo.kfacet_profile(ps).e.tolist() == [d + 1, d + 1]


def test_profile_sum_identity_odd():
    for seed in range(10):
        ps = gauss(100 + seed, 5, 2)
        e = geo.kfacet_profile(ps).e
        assert e.sum() == 2 * math.comb(5, 2)  # n - d odd: no balanced subsets


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(0, 6), st.integers(0, 10_000))
def test_profile_symmetry_and_sum(d, extra, seed):
    n = d + 1 + extra
    ps = gauss(seed, n, d)
    e = geo.kfacet_profile(ps).e
    assert np.array_equal(e, e[::-1])
    balanced = 2 * math.comb(n, d) - int(e.sum())
    assert balanced >= 0
    if (n - d) % 2 == 1:
        assert balanced == 0


def test_profile_matches_brute_side_counts():
    for seed in (3, 4):
        ps = gauss(seed, 7, 3)
        e = np.zeros(5, dtype=int)
        for subset in itertools.combinations(range(7), 3):
            below, above, on = brute_side_split(ps.coords, subset)
            assert on == 0
            e[below] += 1
            if above != below:
                e[above] += 1
        assert np.array_equal(geo.kfacet_profile(ps).e, e)


def test_profile_degeneracy_identifies_subset():
    square_plus_center = PointSet.from_coords(
        [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.0, 0.0]])
    with pytest.raises(geo.DegeneracyError) as err:
        geo.kfacet_profile(square_plus_center)
    assert len(err.value.subset) == 2


def test_profile_rigid_motion_invariance():
    rng = np.random.default_rng(17)
    ps = gauss(23, 9, 3)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    moved = PointSet.from_coords(ps.coords @ q + rng.standard_normal(3))
    assert np.array_equal(geo.kfacet_profile(ps).e, geo.kfacet_profile(moved).e)
    a = geo.estranged_pair_count(geo.facet_set(gauss(29, 6, 3)))
    moved6 = PointSet.from_coords(gauss(29, 6, 3).coords @ q)
    assert geo.estranged_pair_count(geo.facet_set(moved6)) == a


# -------------------------------------------------------------------- facets

def test_facet_set_simplex():
    ps = gauss(41, 4, 3)
    fs = geo.facet_set(ps)
    assert sorted(fs.facets) == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def test_facet_set_square():
    fs = geo.facet_set(SQUARE)
    assert sorted(fs.facets) == [(0, 2), (0, 3), (1, 2), (1, 3)]


def test_facet_set_vs_graham_hull():
    for seed in (1, 2, 3):
        ps = gauss(seed, 30, 2)
        facets = geo.facet_set(ps).facets
        assert len(facets) == graham_hull_vertex_count(ps.coords)


def test_facet_set_equals_profile_zero_layer():
    ps = gauss(55, 9, 4)
    fs = geo.facet_set(ps)
    assert len(fs.facets) == geo.kfacet_profile(ps).e[0]
    assert len(fs.facets) >= ps.d + 1


def test_facet_set_equals_brute_force_list():
    for seed in (5, 6, 7):
        ps = gauss(seed, 8, 3)
        assert sorted(geo.facet_set(ps).facets) == brute_facets(ps.coords)


# ----------------------------------------------------------- estranged pairs

def test_estranged_square():
    fs = geo.facet_set(SQUARE)
    assert geo.estranged_pair_count(fs) == 2
    assert brute_estranged_pairs(fs.facets) == 2  # matches 2^(d-1)


def test_estranged_simplex_zero():
    for d in (2, 3, 4):
        fs = geo.facet_set(gauss(d, d + 1, d))
        assert geo.estranged_pair_count(fs) == 0


def test_estranged_octahedron():
    # cross polytope is not in general position, so build its facet set with
    # the tolerant brute-force oracle instead of facet_set
    coords = np.vstack([np.eye(3), -np.eye(3)])
    facets = brute_facets(coords, allow_on=True)
    assert len(facets) == 8
    fs = geo.FacetSet(n=6, d=3, facets=facets)
    assert geo.estranged_pair_count(fs) == 4  # 2^(d-1)
    assert brute_estranged_pairs(facets) == 4


def test_estranged_gaussian_matches_brute_force():
    for seed in range(30):
        ps = gauss(400 + seed, 6, 3)
        fs = geo.facet_set(ps)
        got = geo.estranged_pair_count(fs)
        assert got == brute_estranged_pairs(fs.facets)
        assert got <= math.comb(6, 3) // 2


def test_estranged_general_n_path():
    ps = gauss(61, 9, 3)  # n != 2d: disjoint pairs need not be complements
    fs = geo.facet_set(ps)
    assert geo.estranged_pair_count(fs) == brute_estranged_pairs(fs.facets)


@pytest.mark.parametrize("n, d, c", [(9, 3, 40), (30, 3, 300), (14, 7, 200),
                                     (120, 2, 400), (6, 3, 20), (4, 2, 6)])
def test_disjoint_pairs_match_brute_force(n, d, c):
    # random rows of distinct points, with repeats, sizes past one block
    # and n > 63 (no 64-bit masks)
    rng = np.random.default_rng(n * 1000 + d)
    subsets = np.sort(rng.permuted(np.broadcast_to(np.arange(n), (c, n)),
                                   axis=1)[:, :d], axis=1)
    want = [(i, j) for i, j in itertools.combinations(range(c), 2)
            if not set(subsets[i]) & set(subsets[j])]
    i, j = geo.disjoint_pairs(subsets)
    assert list(zip(i.tolist(), j.tolist())) == want


def test_disjoint_pairs_at_n_2d_are_complements():
    for d in (2, 3, 5):
        subsets = geo.subset_array(2 * d, d)
        i, j = geo.disjoint_pairs(subsets)
        assert len(i) == len(subsets) // 2
        for a, b in zip(i, j):
            assert sorted(subsets[a].tolist() + subsets[b].tolist()) \
                == list(range(2 * d))


def test_disjoint_pairs_empty():
    i, j = geo.disjoint_pairs([])
    assert len(i) == len(j) == 0
    assert geo.estranged_pair_count(geo.FacetSet(n=4, d=2, facets=[])) == 0


# ----------------------------------------------------------- general position

def test_general_position_gaussian_passes():
    rep = geo.general_position_check(gauss(71, 10, 3))
    assert rep.passed and rep.exhaustive
    assert rep.checked == math.comb(10, 4)


def test_general_position_collinear_violation():
    ps = PointSet.from_coords([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.0, 3.0]])
    rep = geo.general_position_check(ps)
    assert not rep.passed
    assert (0, 1, 2) in rep.violations


def test_general_position_square_with_center():
    ps = PointSet.from_coords([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    rep = geo.general_position_check(ps)
    assert not rep.passed
    assert any({0, 1, 2} <= set(v) for v in rep.violations)


def test_general_position_short_edge():
    # point 1 sits 1e-13 from point 0: every triangle on that edge is
    # degenerate, which a determinant over the Hadamard bound cannot see
    coords = gauss(1, 6, 2).coords.copy()
    coords[1] = coords[0] + [1e-13, 0.0]
    rep = geo.general_position_check(PointSet.from_coords(coords))
    assert not rep.passed
    assert rep.violations == [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5)]


def test_general_position_sampled_mode():
    rep = geo.general_position_check(gauss(83, 40, 3))
    assert rep.passed and not rep.exhaustive
    assert rep.checked == 10_000
    again = geo.general_position_check(gauss(83, 40, 3))
    assert again.violations == rep.violations  # fixed-seed sampling
    # on coplanar points every sampled subset is a violation, so the report
    # lists the sample itself
    flat = np.hstack([gauss(83, 40, 2).coords, np.zeros((40, 1))])
    runs = [geo.general_position_check(PointSet.from_coords(flat),
                                       max_reported=10_000)
            for _ in range(2)]
    rows = np.array(runs[0].violations)
    assert rows.shape == (10_000, 4) and not runs[0].passed
    assert np.all(np.diff(rows, axis=1) > 0)  # sorted and distinct
    assert rows.min() >= 0 and rows.max() < 40
    assert runs[1].violations == runs[0].violations


# ------------------------------------------------------- degeneracy contract

def test_short_edge_raises_on_the_edge():
    # point 1 sits 1e-13 from point 0: every entry point names the edge
    # (0, 1), the first subset general_position_check reports, not a point
    # on the band of a subset through one of its ends
    coords = gauss(1, 6, 2).coords.copy()
    coords[1] = coords[0] + [1e-13, 0.0]
    ps = PointSet.from_coords(coords)
    subsets = geo.subset_array(6, 2)
    assert geo.general_position_check(ps).violations[0][:2] == (0, 1)
    for call in (lambda: geo.kfacet_profile(ps),
                 lambda: geo.profile_counts(coords),
                 lambda: geo.facet_mask(coords, subsets)):
        with pytest.raises(geo.DegenerateSubsetError) as err:
            call()
        assert (err.value.row, err.value.subset) == (0, (0, 1))


def test_hull_through_anchor_names_the_anchor():
    # point 3 is the centroid of points 0, 1, 2, exactly, and the plane of
    # (0, 1, 2) also passes through the origin: the system of (0, 1, 2),
    # anchored at 3, is singular, and the reference path names point 3
    coords = gauss(2, 6, 3).coords.copy()
    coords[:4] = [[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0],
                  [0.0, 0.0, 0.0]]
    first = geo.subset_array(3, 3)
    block = np.stack([gauss(3, 6, 3).coords, coords, gauss(4, 6, 3).coords])
    for call, row in ((lambda: geo.profile_counts(coords, first), 0),
                      (lambda: geo.profile_counts(block), 1),
                      (lambda: geo.facet_mask(block, first), 1)):
        with pytest.raises(geo.DegeneracyError) as err:
            call()
        assert (err.value.row, err.value.subset, err.value.point_index) \
            == (row, (0, 1, 2), 3)


def exact_orientations(coords, subsets):
    """Sign of det [x_s1, 1; ...; x_sd, 1; x_j, 1] for every subset s and
    point j outside it (0 on its own points), in exact rational arithmetic:
    each float coordinate is the dyadic rational it stores."""
    lifted = [[Fraction(float(v)) for v in row] + [Fraction(1)]
              for row in coords]
    signs = np.zeros((len(subsets), len(coords)), dtype=int)
    for i, s in enumerate(subsets):
        for j in set(range(len(coords))) - set(s):
            m = [list(lifted[k]) for k in s] + [list(lifted[j])]
            det = Fraction(1)
            for c in range(len(m)):  # Gaussian elimination
                p = next((r for r in range(c, len(m)) if m[r][c] != 0), None)
                if p is None:
                    det = Fraction(0)
                    break
                m[c], m[p] = m[p], m[c]
                det *= m[c][c] if p == c else -m[c][c]
                for r in range(c + 1, len(m)):
                    f = m[r][c] / m[c][c]
                    m[r] = [a - f * b for a, b in zip(m[r], m[c])]
            signs[i, j] = (det > 0) - (det < 0)
    return signs


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["push", "short", "origin", "anchor"]),
       st.integers(6, 15))
def test_side_decisions_match_exact_orientations(d, extra, seed, kind,
                                                 exponent):
    # near-degenerate inputs: a point pushed 10^-exponent * scale from a
    # subset's hyperplane, an edge that short, a subset's hull through the
    # origin or through its anchor. Every count must follow the exact
    # orientation signs, or the call must raise the reference path's error.
    n = d + 1 + extra
    rng = np.random.default_rng(seed)
    coords = rng.standard_normal((n, d))
    subset = np.sort(rng.choice(n, d, replace=False))
    others = [j for j in range(n) if j not in subset]
    eps = 10.0 ** -exponent * np.abs(coords).max()
    if kind == "push":
        normal = np.linalg.svd(coords[subset[1:]] - coords[subset[0]])[2][-1]
        p = rng.choice(others)
        coords[p] -= (normal @ (coords[p] - coords[subset[0]]) - eps) * normal
    elif kind == "short":
        i, j = rng.choice(n, 2, replace=False)
        step = rng.standard_normal(d)
        coords[j] = coords[i] + eps * step / np.linalg.norm(step)
    elif kind == "origin":
        coords -= rng.dirichlet(np.ones(d)) @ coords[subset]
    else:
        coords[others[0]] = rng.dirichlet(np.ones(d)) @ coords[subset]
    subsets = geo.subset_array(n, d)
    try:
        got = geo.profile_counts(coords), geo.facet_mask(coords, subsets)
    except (geo.DegeneracyError, geo.DegenerateSubsetError) as err:
        with pytest.raises(type(err)) as ref:
            geo._reference_distances(coords, subsets, 0)
        assert vars(ref.value) == vars(err)
        return
    signs = exact_orientations(coords, subsets)
    below, above = (signs < 0).sum(axis=1), (signs > 0).sum(axis=1)
    assert np.all(below + above == n - d)  # no point on a hyperplane
    want = np.bincount(below, minlength=n - d + 1) \
        + np.bincount(above, minlength=n - d + 1) \
        - np.bincount(below[below == above], minlength=n - d + 1)
    assert np.array_equal(got[0], want)
    assert np.array_equal(got[1], (below == 0) | (above == 0))
