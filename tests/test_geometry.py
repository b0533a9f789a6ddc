import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from gpoly import geometry as geo
from gpoly.mathcore import coordinate_scale, degenerate, signed_volumes
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
    subsets = np.array([[0, 1]])
    sides = geo.signed_distances(coords, subsets)
    assert sides.dtype == np.int8 and sides.shape == (1, 3)
    assert sides[0, :2].tolist() == [0, 0]
    assert np.array_equal(sides, exact_orientations(coords, subsets))


def test_hyperplane_d1():
    coords = np.array([[-2.5], [1.0]])
    subsets = np.array([[0], [1]])
    sides = geo.signed_distances(coords, subsets)
    assert sides.tolist() == [[0, -1], [1, 0]]
    assert np.array_equal(sides, exact_orientations(coords, subsets))


def test_hyperplane_contains_defining_points():
    subset = [1, 3, 4, 6]
    outside = [0, 2, 5, 7]
    for seed in range(20):
        ps = gauss(seed, 8, 4)
        sides = geo.signed_distances(ps.coords, np.array([subset]))[0]
        assert np.all(sides[subset] == 0)
        # the other points take the sides of the SVD unit normal, up to the
        # one sign of the subset
        pts = ps.coords[subset]
        normal = np.linalg.svd(pts[1:] - pts[0])[2][-1]
        want = np.sign((ps.coords[outside] - pts[0]) @ normal)
        assert np.array_equal(sides[outside], want) \
            or np.array_equal(sides[outside], -want)


def test_hyperplane_degenerate_subset():
    # collinear: the anchored system is singular, and the SVD reference
    # path finds the dependence
    ps = PointSet.from_coords([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                               [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(geo.DegeneracyError) as err:
        geo.signed_distances(ps.coords, np.array([[0, 1, 2]]))
    assert (err.value.subset, err.value.point_index) == ((0, 1, 2), None)


# -------------------------------------------------------------- side counts

def side_split(coords, subset):
    """(below, above) of one subset from the block side table, T = 1."""
    coords = np.asarray(coords, dtype=float)
    subsets = np.array([subset], dtype=np.intp)
    [(_, below)] = geo._side_table(coords[None], subsets)
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
        sides = geo.signed_distances(coords, subsets)
        assert sides.shape == (len(coords), len(subsets), 6)
        for got, pts in zip(sides, coords):
            assert np.array_equal(got, geo.signed_distances(pts, subsets))


def dyadic(points):
    """Points rounded to multiples of 2^-20, so that the midpoint of two of
    them is exact, on their line."""
    return np.round(points * 2.0 ** 20) / 2.0 ** 20


def test_on_band_hit():
    # the first point exactly on a hyperplane in (point set, subset, point)
    # order raises, and a subset's own points never count
    subsets = geo.subset_array(5, 2)
    block = np.stack([gauss(seed, 5, 2).coords for seed in range(4)])
    block[2:, :2] = dyadic(block[2:, :2])
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


def test_float_midpoint_counts_by_its_exact_orientation():
    # the midpoints of test_on_band_hit, rounded from float endpoints, miss
    # the line: their exact orientations are nonzero, so every point set
    # is counted by its exact signs
    block = np.stack([gauss(seed, 5, 2).coords for seed in range(4)])
    block[2, 3] = 0.5 * (block[2, 0] + block[2, 1])
    block[3, 4] = 0.5 * (block[3, 0] + block[3, 1])
    subsets = geo.subset_array(5, 2)
    assert exact_orientations(block[2], subsets)[0, 3] == -1
    assert exact_orientations(block[3], subsets)[0, 4] == 1
    got = geo.profile_counts(block), geo.facet_mask(block, subsets)
    for coords, e, mask in zip(block, *got):
        want = exact_counts(exact_orientations(coords, subsets), 2)
        assert np.array_equal(e, want[0]) and np.array_equal(mask, want[1])


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
        with pytest.raises(geo.DegeneracyError) as err:
            geo.profile_counts(rows)
        assert (err.value.row, err.value.subset, err.value.point_index) \
            == (row, (0, 1), None)


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
    # with fewer pairs per call than subsets, point sets come one at a
    # time, each with the whole subset list; counts must not change
    block = np.stack([gauss(seed, 9, 3).coords for seed in range(3)])
    want = geo.profile_counts(block)
    monkeypatch.setattr(geo, "_BLOCK", 10)
    pieces = list(geo._side_table(block, geo.subset_array(9, 3)))
    assert len(pieces) == 3
    assert np.array_equal(geo.profile_counts(block), want)


# ------------------------------------------------------------------ profiles

def test_profile_line():
    ps = PointSet.from_coords([[0.0], [1.0], [2.0]])
    assert geo.kfacet_profile(ps).e.tolist() == [2, 1, 2]


def test_profile_simplex():
    for d in (1, 2, 3, 4, 5):
        ps = gauss(d, d + 1, d)
        assert geo.kfacet_profile(ps).e.tolist() == [d + 1, d + 1]


def test_profile_with_no_outside_point():
    # n = d: the one subset has no (d+1)-set, so the reference path decides
    # it, with a side count of 0 or by the dependence rule
    for d in (1, 3):
        assert geo.profile_counts(gauss(d, d, d).coords).tolist() == [1]
    with pytest.raises(geo.DegeneracyError) as err:
        geo.profile_counts(np.array([[1.0, 2.0], [1.0, 2.0]]))
    assert err.value.point_index is None


def test_empty_subset_list():
    # no subsets: an all-zero profile and an empty mask, for one point set
    # and for a block
    block = np.stack([gauss(seed, 6, 2).coords for seed in range(3)])
    empty = np.empty((0, 2), dtype=np.intp)
    assert geo.profile_counts(block[0], empty).tolist() == [0] * 5
    assert np.array_equal(geo.profile_counts(block, empty), np.zeros((3, 5)))
    assert geo.facet_mask(block, empty).shape == (3, 0)
    assert geo.facet_mask(block[0], empty).shape == (0,)


@pytest.mark.parametrize("n, subsets, fault", [
    (5, [[0, 1, 2], [1, 2, 3]], "width d = 2"),
    (5, [[0], [1]], "width d = 2"),
    (5, [0, 1], "width d = 2"),
    (6, [[1, 2], [-2, 0], [3, 5]], r"lie in \[0, 6\)"),
    (6, [[1, 2], [0, 6]], r"lie in \[0, 6\)"),
    (6, [[1, 2], [0, 0], [3, 5]], "repeats a point"),
])
@pytest.mark.parametrize("fn", [geo.profile_counts, geo.facet_mask,
                                geo.signed_distances])
def test_malformed_subset_list_raises(fn, n, subsets, fault):
    # a list of the wrong width, an entry outside range(n) or a repeated
    # point is named, never counted or taken for a degeneracy
    coords = stream(3, 0).standard_normal((n, 2))
    with pytest.raises(ValueError, match=fault) as err:
        fn(coords, subsets)
    assert type(err.value) is ValueError


@pytest.mark.parametrize("subsets", [[[0.5, 1.7], [2, 3]], [[0.0, 1.0]],
                                     [[True, False]]])
@pytest.mark.parametrize("fn", [geo.profile_counts, geo.facet_mask,
                                geo.signed_distances])
def test_subset_list_of_floats_or_booleans_raises(fn, subsets):
    # a cast to integers would truncate [0.5, 1.7] to [0, 1] and count it
    coords = stream(3, 0).standard_normal((5, 2))
    with pytest.raises(ValueError, match="must hold integers"):
        fn(coords, subsets)


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


# ---------------------------------------------------------------- hull oracle

def hull_facets(coords):
    """Independent facet list: Qhull (Barber, Dobkin and Huhdanpaa, 1996),
    whose simplices are the facets of a simplicial hull."""
    return sorted(tuple(sorted(int(i) for i in simplex))
                  for simplex in ConvexHull(coords).simplices)


def hull_estranged_pairs(facets):
    """Disjoint facet pairs, counted on the facet-by-point incidence matrix."""
    inc = np.zeros((len(facets), max(map(max, facets)) + 1))
    for row, facet in enumerate(facets):
        inc[row, list(facet)] = 1.0
    return int(np.triu(inc @ inc.T == 0, 1).sum())


HULL_CASES = [(n, d) for d in range(2, 9)
              for n in range(d + 1, min(2 * d + 2, 15) + 1)]


@pytest.mark.parametrize("n, d", HULL_CASES)
def test_enumeration_matches_the_hull(n, d):
    sets = [gaussian_point_set(stream(1000 * d + n, i), n, d)
            for i in range(8)]
    e0 = geo.profile_counts(np.stack([ps.coords for ps in sets]))[:, 0]
    for ps, count in zip(sets, e0):
        want = hull_facets(ps.coords)
        fs = geo.facet_set(ps)
        assert fs.facets == want
        assert count == len(want)
        assert geo.estranged_pair_count(fs) == hull_estranged_pairs(want)


@pytest.mark.slow
@pytest.mark.parametrize("n, d", [(16, 8), (20, 10)])
def test_facet_count_matches_the_hull_at_high_d(n, d):
    block = np.stack([gaussian_point_set(stream(7, i), n, d).coords
                      for i in range(3)])
    assert list(geo.profile_counts(block)[:, 0]) == \
        [len(ConvexHull(coords).simplices) for coords in block]


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


@pytest.mark.parametrize("subsets", [[[0.5, 1.7], [2, 3]],
                                     [[True, False], [False, True]]])
def test_disjoint_pairs_of_floats_or_booleans_raise(subsets):
    with pytest.raises(ValueError, match="must hold integers"):
        geo.disjoint_pairs(subsets)


def test_disjoint_pairs_of_negative_entries_raise():
    # -1 would index the last column of the incidence matrix, so (1, -1)
    # would meet (0, 2) at point 2 and the pair would silently vanish
    with pytest.raises(ValueError, match="non-negative"):
        geo.disjoint_pairs([[0, 2], [1, -1]])
    with pytest.raises(ValueError, match="non-negative"):
        geo.estranged_pair_count(geo.FacetSet(n=4, d=2,
                                              facets=[(0, 2), (1, -1)]))


# ----------------------------------------------------------- general position

def test_general_position_gaussian_passes():
    rep = geo.general_position_check(gauss(71, 10, 3))
    assert rep.passed
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


def test_general_position_is_exhaustive_above_16_points():
    rep = geo.general_position_check(gauss(83, 40, 3))
    assert rep.passed and rep.checked == math.comb(40, 4)
    assert geo.general_position_check(gauss(83, 40, 3)) == rep
    # on coplanar points every set is a violation, each by its exact zero
    # orientation, so the report lists the first sets in lexicographic order
    flat = np.hstack([gauss(83, 40, 2).coords, np.zeros((40, 1))])
    runs = [geo.general_position_check(PointSet.from_coords(flat),
                                       max_reported=10_000)
            for _ in range(2)]
    rows = np.array(runs[0].violations)
    assert rows.shape == (10_000, 4) and not runs[0].passed
    assert runs[0].checked == math.comb(40, 4)
    assert np.all(np.diff(rows, axis=1) > 0)  # sorted and distinct
    assert rows.min() >= 0 and rows.max() < 40
    assert np.array_equal(rows, geo.subset_array(40, 4)[:10_000])
    assert runs[1] == runs[0]
    # at the default max_reported, the first 16 sets in lexicographic order
    first = [tuple(s) for s in geo.subset_array(40, 4)[:16].tolist()]
    assert geo.general_position_check(PointSet.from_coords(flat)) == \
        geo.GeneralPositionReport(False, first, math.comb(40, 4))


def test_general_position_finds_the_one_coplanar_set_of_40_points():
    # a sample of 10,000 of the C(40, 4) = 91,390 sets would likely miss
    # the one degenerate set that the enumeration raises on
    coords = stream(83, 0).standard_normal((40, 3))
    coords[[5, 17, 29, 33], 2] = 0.5
    rep = geo.general_position_check(PointSet.from_coords(coords))
    assert not rep.passed and rep.violations == [(5, 17, 29, 33)]
    with pytest.raises(geo.DegeneracyError) as err:
        geo.profile_counts(coords)
    assert (err.value.point_index, err.value.subset) == (33, (5, 17, 29))


def test_general_position_refuses_a_negative_max_reported():
    # [:-1] would drop the last violation and report passed=False with none
    with pytest.raises(ValueError, match="max_reported"):
        geo.general_position_check(SQUARE, max_reported=-1)


def test_general_position_refuses_a_set_over_the_subset_cap():
    ps = PointSet.from_coords(stream(5, 0).standard_normal((30, 10)))
    before = geo._orientation_table.cache_info()
    with pytest.raises(ValueError, match=rf"C\(30, 10\) = "
                       rf"{math.comb(30, 10)} exceeds the subset cap "
                       rf"{geo.SUBSET_CAP}"):
        geo.general_position_check(ps)
    after = geo._orientation_table.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


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
        with pytest.raises(geo.DegeneracyError) as err:
            call()
        assert (err.value.row, err.value.subset, err.value.point_index) \
            == (0, (0, 1), None)


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
    each float coordinate is the dyadic rational it stores. Each set of
    points is eliminated once, in sorted order; the rows in the order s
    then j differ from it by one sign per inversion."""
    lifted = [[Fraction(float(v)) for v in row] + [Fraction(1)]
              for row in coords]
    sorted_signs = {}
    signs = np.zeros((len(subsets), len(coords)), dtype=int)
    for i, s in enumerate(subsets):
        for j in set(range(len(coords))) - set(s):
            rows = [int(k) for k in s] + [j]
            key = tuple(sorted(rows))
            if key not in sorted_signs:
                sorted_signs[key] = fraction_det_sign(
                    [list(lifted[k]) for k in key])
            inversions = sum(a > b for a, b in itertools.combinations(rows, 2))
            signs[i, j] = sorted_signs[key] * (-1) ** inversions
    return signs


def fraction_det_sign(m):
    """Sign of the determinant of the rational rows m, by Gaussian
    elimination."""
    det = Fraction(1)
    for c in range(len(m)):
        p = next((r for r in range(c, len(m)) if m[r][c] != 0), None)
        if p is None:
            return 0
        m[c], m[p] = m[p], m[c]
        det *= m[c][c] if p == c else -m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return (det > 0) - (det < 0)


def contract_error(coords, subsets):
    """What the degeneracy contract raises for one point set, or None, and
    the exact orientation signs: the first subset whose edges fail the rule
    of ``degenerate``, else the first (subset, point) whose exact
    orientation is zero."""
    scale = coordinate_scale(coords)
    for s in subsets:
        sv = np.linalg.svd(coords[s[1:]] - coords[s[:1]], compute_uv=False)
        if degenerate(sv, scale):
            return geo.DegeneracyError(s), None
    signs = exact_orientations(coords, subsets)
    for s, row in zip(subsets, signs):
        for j in sorted(set(range(len(coords))) - set(s)):
            if row[j] == 0:
                return geo.DegeneracyError(s, j), signs
    return None, signs


def exact_counts(signs, d):
    """The profile and facet mask that exact orientation signs give, with
    no point on a hyperplane."""
    m = signs.shape[1] - d
    below, above = (signs < 0).sum(axis=1), (signs > 0).sum(axis=1)
    assert np.all(below + above == m)
    profile = np.bincount(below, minlength=m + 1) \
        + np.bincount(above, minlength=m + 1) \
        - np.bincount(below[below == above], minlength=m + 1)
    return profile, (below == 0) | (above == 0)


def assert_contract(coords, subsets):
    """profile_counts and facet_mask over ``subsets`` count by the exact
    orientation signs, or raise exactly when the contract does, with its
    error and names."""
    want, signs = contract_error(coords, subsets)
    try:
        got = geo.profile_counts(coords, subsets), \
            geo.facet_mask(coords, subsets)
    except geo.DegeneracyError as err:
        assert type(err) is type(want) and vars(err) == vars(want)
        return
    assert want is None
    profile, mask = exact_counts(signs, coords.shape[1])
    assert np.array_equal(got[0], profile)
    assert np.array_equal(got[1], mask)


def test_one_subset_call_sees_a_dependent_subset():
    # point 2 sits 1e-12 off the line through points 0 and 1: the one
    # subset (0, 1, 2) is dependent, with no other subset to show it
    rng = np.random.default_rng(3)
    coords = rng.standard_normal((7, 3))
    coords[2] = 0.3 * coords[0] + 0.7 * coords[1] + [0.0, 0.0, 1e-12]
    assert geo.general_position_check(PointSet.from_coords(coords)
                                      ).violations[0][:3] == (0, 1, 2)
    with pytest.raises(geo.DegeneracyError) as err:
        geo.profile_counts(coords, geo.subset_array(3, 3))
    assert (err.value.row, err.value.subset, err.value.point_index) \
        == (0, (0, 1, 2), None)


def test_point_near_a_hyperplane_counts_by_its_orientation():
    # trial 62 of estranged mc --d 7 --seed 994914863: point 9 lies 1.7e-9
    # from the hyperplane of this subset, yet its orientation determinant
    # is sure of its sign, and its side is that sign
    coords = stream(994914863, 62).standard_normal((14, 7))
    subset = np.array([[0, 2, 5, 7, 8, 12, 13]])
    pts = coords[subset[0]]
    normal = np.linalg.svd(pts[1:] - pts[0])[2][-1]
    assert 0 < abs((coords[9] - pts[0]) @ normal) < 1e-8
    sides = geo.signed_distances(coords, subset)[0]
    assert np.array_equal(sides, exact_orientations(coords, subset)[0])
    profile = geo.profile_counts(coords)
    mask = geo.facet_mask(coords, geo.subset_array(14, 7))
    assert profile.sum() == 2 * math.comb(14, 7)  # n - d odd: none balanced
    assert mask.sum() == profile[0]
    # the static test leaves one of these determinants unsure; the sure
    # ones have the exact sign, and the exact helper decides the other
    sets, index, flip, _ = geo._orientation_table(14, 7, subset.tobytes())
    dets, sure, _ = signed_volumes(coords[sets[:, 1:]] - coords[sets[:, :1]],
                                   coordinate_scale(coords))
    sure = sure[index[0]]
    assert sure.sum() == 6
    sides = np.where(flip[0], -1, 1) * np.sign(dets[index[0]]).astype(int)
    exact = exact_orientations(coords, subset)[0]
    outside = [j for j in range(14) if j not in subset[0]]
    assert np.array_equal(sides[sure], exact[outside][sure])
    assert side_split(coords, subset[0])[0] in ((exact < 0).sum(),
                                                (exact > 0).sum())


def near_degenerate(d, n, seed, kind, exponent):
    """Gaussian coordinates (n, d) and a subset, made near-degenerate: a
    point pushed 10^-exponent * scale from the subset's hyperplane, an edge
    that short, the subset's hull through the origin or through its
    anchor."""
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
    return coords, subset


def count_svd_rows(monkeypatch):
    """The point tuples every ``_edge_sv`` call receives, in call order."""
    seen = []
    edge_sv = geo._edge_sv

    def counting(pts):
        seen.append(np.array(pts))
        return edge_sv(pts)

    monkeypatch.setattr(geo, "_edge_sv", counting)
    return seen


def uncovered_subsets(coords, subsets):
    """The subsets of one point set in no (d+1)-set the screen clears."""
    n, d = coords.shape
    sets, index, _, _ = geo._orientation_table(n, d, subsets.tobytes())
    _, _, clear = signed_volumes(coords[sets[:, 1:]] - coords[sets[:, :1]],
                                 coordinate_scale(coords))
    return subsets[~clear[index].any(axis=1)]


def test_only_uncovered_subsets_reach_the_svd(monkeypatch):
    # a point pushed 1e-16 * scale from a hyperplane leaves one determinant
    # unsure, so the point set takes the contract path, yet a cleared set
    # covers every subset: none reaches the SVD, and the counts follow the
    # exact signs
    coords, _ = near_degenerate(6, 12, 0, "push", 16)
    subsets = geo.subset_array(12, 6)
    sets, _, _, _ = geo._orientation_table(12, 6, subsets.tobytes())
    _, sure, _ = signed_volumes(coords[sets[:, 1:]] - coords[sets[:, :1]],
                                coordinate_scale(coords))
    assert not sure.all() and len(uncovered_subsets(coords, subsets)) == 0
    seen = count_svd_rows(monkeypatch)
    profile = geo.profile_counts(coords, subsets)
    assert sum(len(pts) for pts in seen) == 0
    want, signs = contract_error(coords, subsets)
    assert want is None
    assert np.array_equal(profile, exact_counts(signs, 6)[0])
    # on the short edge only (0, 1) lies in no cleared set: it alone
    # reaches the SVD, and it raises what the contract names
    coords = gauss(1, 6, 2).coords.copy()
    coords[1] = coords[0] + [1e-13, 0.0]
    subsets = geo.subset_array(6, 2)
    rest = uncovered_subsets(coords, subsets)
    assert rest.tolist() == [[0, 1]]
    seen.clear()
    with pytest.raises(geo.DegeneracyError) as err:
        geo.profile_counts(coords, subsets)
    assert len(seen) == 1 and np.array_equal(seen[0], coords[rest])
    want, _ = contract_error(coords, subsets)
    assert type(err.value) is type(want) and vars(err.value) == vars(want)


KINDS = st.sampled_from(["push", "short", "origin", "anchor"])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2 ** 32 - 1),
       KINDS, st.integers(6, 15))
def test_side_decisions_match_exact_orientations(d, extra, seed, kind,
                                                 exponent):
    # on near-degenerate inputs every count must follow the exact
    # orientation signs, and a call must raise exactly when the contract
    # does, naming what it names: for the one subset made near-degenerate
    # alone, and for the full list
    n = d + 1 + extra
    coords, subset = near_degenerate(d, n, seed, kind, exponent)
    assert_contract(coords, subset[None])
    assert_contract(coords, geo.subset_array(n, d))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 10), st.integers(0, 2 ** 32 - 1),
       KINDS, st.integers(6, 15))
def test_audit_agrees_with_the_enumeration(d, extra, seed, kind, exponent):
    # general_position_check passes exactly when the full enumeration
    # completes: both apply one contract, through one exact helper
    n = min(d + 1 + extra, 16)
    coords, _ = near_degenerate(d, n, seed, kind, exponent)
    try:
        geo.profile_counts(coords)
        completes = True
    except geo.DegeneracyError:
        completes = False
    assert geo.general_position_check(
        PointSet.from_coords(coords)).passed == completes


def test_trial_62_passes_the_audit():
    # the enumeration counts this point set, so the audit must pass it;
    # (0, 2, 5, 7, 8, 9, 12, 13) has sigma_min 1.1e-9 of sigma_max on its
    # 8 x 8 edges, yet exact orientation +1 and no dependent 7-subset
    coords = stream(994914863, 62).standard_normal((14, 7))
    geo.profile_counts(coords)
    rep = geo.general_position_check(PointSet.from_coords(coords))
    assert rep.passed and rep.violations == []


def test_block_profile_looks_up_its_table_once():
    # at (16, 8) a chunk of _side_table is one point set; the subset list
    # is hashed for its table once per profile_counts call, not per chunk,
    # and the counts equal those of one signed_distances call on the block
    block = stream(8, 0).standard_normal((3, 16, 8))
    subsets = geo.subset_array(16, 8)
    before = geo._orientation_table.cache_info()
    profiles = geo.profile_counts(block, subsets)
    after = geo._orientation_table.cache_info()
    assert (after.hits + after.misses) - (before.hits + before.misses) <= 1
    below = (geo.signed_distances(block, subsets) < 0).sum(axis=2)
    hist = np.stack([np.bincount(b, minlength=9) for b in below])
    want = hist + hist[:, ::-1]
    want[:, 4] = hist[:, 4]
    assert np.array_equal(profiles, want)
