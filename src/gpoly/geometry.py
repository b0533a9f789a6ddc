"""Exact combinatorial geometry on finite point sets.

A d-subset of an n-point set in general position spans an affine hyperplane;
counting the points strictly on each open side classifies the subset as a
k-facet (exactly k points on one side). Facets of the convex hull are the
0-facets, and two facets are estranged when their vertex sets are disjoint.

Enumeration is brute force over all C(n, d) subsets, on blocks of point
sets: ``_side_table`` takes a (T, n, d) block and is the one place that
runs the on-band test and counts the points on each side. Profiles, facet
masks and the Monte Carlo kernels all go through it, and a single point set
is the block with T = 1. Numeric degeneracy (a point within the on-band of
a hyperplane, or an affinely dependent subset) raises rather than
tie-breaking silently, since Gaussian inputs hit it with probability zero;
the error names the point set's row in the block. ``disjoint_pairs`` is
the one test of which subsets share no point; the estranged-pair count and
the estranged Monte Carlo kernel both use it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

ON_BAND_RTOL = 1e-9
AFFINE_DEP_RTOL = 1e-9

_BLOCK = 16384  # pairs per numpy call of _side_table and disjoint_pairs


class DegenerateSubsetError(ValueError):
    """The defining points of a subset are affinely dependent at tolerance.

    ``row`` is the index of the point set in the block that raised (0 for
    a single point set).
    """

    def __init__(self, subset, row: int = 0):
        subset = tuple(int(i) for i in subset)
        super().__init__(f"affinely dependent subset {subset}")
        self.subset = subset
        self.row = int(row)


class DegeneracyError(ValueError):
    """A point outside the subset lies in the on-band of its hyperplane.

    ``row`` is the index of the point set in the block that raised (0 for
    a single point set).
    """

    def __init__(self, subset, point_index: int, row: int = 0):
        subset = tuple(int(i) for i in subset)
        point_index = int(point_index)
        super().__init__(f"point {point_index} lies on the hyperplane of "
                         f"subset {subset} at tolerance")
        self.subset = subset
        self.point_index = point_index
        self.row = int(row)


@dataclass(frozen=True, eq=False)
class KFacetProfile:
    """Counts e[k] of k-facets for k = 0..n-d."""

    n: int
    d: int
    e: np.ndarray


@dataclass(frozen=True, eq=False)
class FacetSet:
    """The 0-facets (convex hull facets), as sorted index tuples."""

    n: int
    d: int
    facets: list[tuple[int, ...]]


@dataclass(frozen=True)
class GeneralPositionReport:
    passed: bool
    violations: list[tuple[int, ...]]
    checked: int
    exhaustive: bool


def _coordinate_scale(coords: np.ndarray) -> np.ndarray:
    """Largest |coordinate| of each point set of a (T, n, d) block (1 when
    all are zero)."""
    scale = np.max(np.abs(coords), axis=(1, 2))
    return np.where(scale > 0, scale, 1.0)


def _as_block(coords) -> np.ndarray:
    """A (T, n, d) float block; one point set of shape (n, d) becomes T = 1."""
    coords = np.asarray(coords, dtype=float)
    return coords.reshape((-1,) + coords.shape[-2:])


def subset_array(n: int, d: int) -> np.ndarray:
    """All d-subsets of range(n) in lexicographic order, one per row."""
    combos = list(itertools.combinations(range(n), d))
    return np.array(combos, dtype=np.intp).reshape(len(combos), d)


def _dependent(sv: np.ndarray, scale) -> np.ndarray:
    """The affine-dependence rule, from the singular values (..., k) of edge
    matrices: sigma_min <= AFFINE_DEP_RTOL * max(sigma_max, scale). With no
    edges (k = 0) nothing is dependent."""
    return sv.min(axis=-1, initial=np.inf) <= \
        AFFINE_DEP_RTOL * np.maximum(sv.max(axis=-1, initial=0.0), scale)


def _hyperplane_arrays(pts: np.ndarray, scale: float, subsets, row: int):
    """Unit normals (c, d) and offsets (c,) of the affine hulls of c d-point
    subsets pts (c, d, d), by SVD, so hulls through the origin are handled.

    Raises DegenerateSubsetError, naming ``row``, for the first affinely
    dependent subset.
    """
    _, sv, vt = np.linalg.svd(pts[:, 1:] - pts[:, :1])
    bad = _dependent(sv, scale)
    if bad.any():
        raise DegenerateSubsetError(subsets[np.argmax(bad)], row)
    normals = vt[:, -1]
    return normals, np.einsum("ij,ij->i", normals, pts[:, 0])


def _solved_distances(block: np.ndarray, subsets: np.ndarray):
    """Distances to the hulls theta . x = 1 from one batched solve of
    A theta = 1, or None when some A is singular or the solve overflows."""
    try:
        # np.take gathers the (T, c, d, d) systems faster than block[:, subsets]
        theta = np.linalg.solve(np.take(block, subsets, axis=1),
                                np.ones((block.shape[-1], 1)))[..., 0]
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(theta)):
        return None
    norms = np.sqrt(np.einsum("tij,tij->ti", theta, theta))
    # a contiguous (T, d, n) operand halves the matmul time of a view
    points = np.ascontiguousarray(block.swapaxes(-1, -2))
    return (np.matmul(theta, points) - 1.0) / norms[..., None]


def signed_distances(coords: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Distance of every point to the affine hull of every subset.

    Returns shape (len(subsets), n) for coordinates of shape (n, d), and
    (T, len(subsets), n) for a block of T point sets of shape (T, n, d).
    The sign convention per subset is arbitrary but internally consistent,
    which is all side counting needs. One batched solve of A theta = 1
    serves the block. When a hull passes through the origin (singular A),
    each point set is solved on its own, and one whose solve still fails
    takes SVD normals at its own coordinate scale; DegenerateSubsetError
    then names its row.
    """
    block = _as_block(coords)
    dist = _solved_distances(block, subsets)
    if dist is None:
        rows = []
        for r, (pts, s) in enumerate(zip(block, _coordinate_scale(block))):
            alone = _solved_distances(pts[None], subsets)
            if alone is None:
                normals, offsets = _hyperplane_arrays(pts[subsets], s,
                                                      subsets, r)
                alone = (normals @ pts.T - offsets[:, None])[None]
            rows.append(alone[0])
        dist = np.stack(rows)
    return dist if np.ndim(coords) == 3 else dist[0]


def _side_table(coords: np.ndarray, subsets: np.ndarray):
    """Side counts of every subset in every point set of a (T, n, d) block.

    Yields (rows, cols, below), slices and a table: below[t, j] counts the
    points outside subset subsets[cols][j] strictly below its hyperplane in
    point set coords[rows][t]; the other n - d - below lie strictly above.
    Each numpy call covers at most _BLOCK (point set, subset) pairs:
    max(1, _BLOCK // c) point sets at a time, and chunks of subsets when
    c > _BLOCK. Point sets come in order, so the error raised is the one
    they would raise one at a time: DegenerateSubsetError for an affinely
    dependent subset, or DegeneracyError for an outside point in the
    on-band |distance| <= ON_BAND_RTOL * max |coordinate|. Both name the
    row of the point set.
    """
    n = coords.shape[1]
    c = len(subsets)
    scale = _coordinate_scale(coords)
    outside = np.ones((c, n), dtype=bool)
    np.put_along_axis(outside, subsets, False, axis=1)
    step = max(1, _BLOCK // c)
    for lo in range(0, len(coords), step):
        for s0 in range(0, c, _BLOCK):
            rows, cols = slice(lo, lo + step), slice(s0, s0 + _BLOCK)
            chunk, out = subsets[cols], outside[cols]
            dependent = None
            try:
                dist = signed_distances(coords[rows], chunk)
            except DegenerateSubsetError as err:
                # an on-band point in an earlier point set comes first
                dependent = DegenerateSubsetError(err.subset, lo + err.row)
                rows = slice(lo, lo + err.row)
                dist = signed_distances(coords[rows], chunk)
            band = ON_BAND_RTOL * scale[rows, None, None]
            on = (np.abs(dist) <= band) & out
            if on.any():
                t, i, j = np.argwhere(on)[0]
                raise DegeneracyError(chunk[i], j, lo + t)
            if dependent is not None:
                raise dependent
            yield rows, cols, ((dist < -band) & out).sum(axis=2)


def profile_counts(coords: np.ndarray, subsets: np.ndarray | None = None) -> np.ndarray:
    """k-facet counts e[0..n-d] for raw coordinates (the enumeration core).

    Coordinates of shape (n, d) give one profile; a (T, n, d) block gives
    one row per point set. A subset with side counts (b, a) is both a
    b-facet and an a-facet; it is counted once when balanced (b == a, only
    possible for n - d even).
    """
    block = _as_block(coords)
    t, n, d = block.shape
    if subsets is None:
        subsets = subset_array(n, d)
    m = n - d
    hist = np.zeros((t, m + 1), dtype=np.int64)  # subsets per below count
    for rows, _, below in _side_table(block, subsets):
        shift = np.arange(len(below))[:, None] * (m + 1)
        hist[rows] += np.bincount((below + shift).ravel(),
                                  minlength=len(below) * (m + 1)
                                  ).reshape(-1, m + 1)
    e = hist + hist[:, ::-1]  # b points below leaves m - b above
    if m % 2 == 0:
        e[:, m // 2] = hist[:, m // 2]
    return e if np.ndim(coords) == 3 else e[0]


def kfacet_profile(ps) -> KFacetProfile:
    """Exhaustive k-facet profile of a point set in general position."""
    if ps.n < ps.d + 1:
        raise ValueError("profile needs n >= d + 1")
    e = profile_counts(ps.coords)
    return KFacetProfile(n=ps.n, d=ps.d, e=e)


def facet_mask(coords: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Boolean mask over subsets: True where one open side is empty.

    One row per point set for a (T, n, d) block.
    """
    block = _as_block(coords)
    m = block.shape[1] - subsets.shape[1]
    mask = np.empty((len(block), len(subsets)), dtype=bool)
    for rows, cols, below in _side_table(block, subsets):
        mask[rows, cols] = (below == 0) | (below == m)
    return mask if np.ndim(coords) == 3 else mask[0]


def facet_set(ps) -> FacetSet:
    """Subsets whose hyperplane has all outside points strictly on one side."""
    subsets = subset_array(ps.n, ps.d)
    mask = facet_mask(ps.coords, subsets)
    facets = [tuple(int(i) for i in row) for row in subsets[mask]]
    return FacetSet(n=ps.n, d=ps.d, facets=facets)


def disjoint_pairs(subsets) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i < j, of the rows of ``subsets`` that share no
    point, in row-major order.

    Rows are compared through their 0/1 incidence matrix: row i meets the
    rows after it in one matrix product, over blocks of at most _BLOCK
    pairs, so any number of points works.
    """
    subsets = np.asarray(subsets, dtype=np.intp)
    c = len(subsets)
    inc = np.zeros((c, subsets.max(initial=-1) + 1))
    inc[np.arange(c)[:, None], subsets] = 1.0
    step = max(1, _BLOCK // max(c, 1))
    first, second = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for lo in range(0, c, step):
        i, j = np.nonzero(inc[lo:lo + step] @ inc[lo + 1:].T == 0)
        i, j = i + lo, j + lo + 1
        first.append(i[i < j])
        second.append(j[i < j])
    return np.concatenate(first), np.concatenate(second)


def estranged_pair_count(fs: FacetSet) -> int:
    """Unordered facet pairs with disjoint vertex sets (estranged pairs)."""
    return len(disjoint_pairs(fs.facets)[0])


def general_position_check(ps, exhaustive_max_n: int = 16,
                           samples: int = 10000,
                           max_reported: int = 16) -> GeneralPositionReport:
    """Affine-independence audit of all (or sampled) (d+1)-point subsets.

    Exhaustive for n <= exhaustive_max_n, otherwise a fixed-seed random
    sample of subsets. A subset fails by the dependence rule of the SVD
    hyperplanes: sigma_min(edges) <= AFFINE_DEP_RTOL * max(sigma_max,
    max |coordinate|).
    """
    coords = ps.coords
    n, d = ps.n, ps.d
    size = min(d + 1, n)
    if n <= exhaustive_max_n:
        subs = subset_array(n, size)
        exhaustive = True
    else:
        rng = np.random.default_rng(20240 + size)  # fixed seed: report is deterministic
        rows = np.broadcast_to(np.arange(n, dtype=np.intp), (samples, n))
        subs = np.sort(rng.permuted(rows, axis=1)[:, :size], axis=1)
        exhaustive = False
    pts = coords[subs]
    sv = np.linalg.svd(pts[:, 1:] - pts[:, :1], compute_uv=False)
    bad = _dependent(sv, _coordinate_scale(coords[None])[0])
    violations = [tuple(int(i) for i in subs[i])
                  for i in np.nonzero(bad)[0][:max_reported]]
    return GeneralPositionReport(passed=not bad.any(), violations=violations,
                                 checked=len(subs), exhaustive=exhaustive)
