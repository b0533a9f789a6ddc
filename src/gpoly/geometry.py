"""Exact combinatorial geometry on finite point sets.

A d-subset of an n-point set in general position spans an affine hyperplane;
counting the points strictly on each open side classifies the subset as a
k-facet (exactly k points on one side). Facets of the convex hull are the
0-facets, and two facets are estranged when their vertex sets are disjoint.

Enumeration is brute force over all C(n, d) subsets, on blocks of point
sets: profiles, facet masks and the Monte Carlo kernels all count sides
through ``_side_table``, and a single point set is the block with T = 1.
``disjoint_pairs`` is the one test of which subsets share no point.

One degeneracy contract: ``signed_distances`` solves every subset's
hyperplane relative to an anchor outside it in one batched solve, and
sends a point set it cannot accept to the one reference path, SVD normals.
There the rule of ``mathcore.degenerate``, which ``general_position_check``
shares, and then the on-band test |distance| <= DEGENERACY_RTOL *
max |coordinate| raise rather than tie-break, naming the point set's row,
since Gaussian inputs hit them with probability zero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .mathcore import DEGENERACY_RTOL, coordinate_scale, degenerate

_BLOCK = 16384  # pairs per numpy call of _side_table and disjoint_pairs
GP_EXHAUSTIVE_MAX_N = 16  # general_position_check samples above this n
GP_SAMPLES = 10_000  # subsets a sampled general_position_check audits


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


def _as_block(coords) -> np.ndarray:
    """A (T, n, d) float block; one point set of shape (n, d) becomes T = 1."""
    coords = np.asarray(coords, dtype=float)
    return coords.reshape((-1,) + coords.shape[-2:])


def subset_array(n: int, d: int) -> np.ndarray:
    """All d-subsets of range(n) in lexicographic order, one per row."""
    combos = list(itertools.combinations(range(n), d))
    return np.array(combos, dtype=np.intp).reshape(len(combos), d)


def _outside(n: int, subsets: np.ndarray) -> np.ndarray:
    """(c, n) mask of the points outside each subset."""
    outside = np.ones(len(subsets) * n, dtype=bool)
    outside[(subsets + n * np.arange(len(subsets))[:, None]).ravel()] = False
    return outside.reshape(-1, n)


def _on_band(dist: np.ndarray, outside: np.ndarray, scale) -> np.ndarray:
    """The on-band test: outside points of (..., c, n) distances within
    DEGENERACY_RTOL times their coordinate scale (...,), or not a number."""
    band = DEGENERACY_RTOL * np.asarray(scale)[..., None, None]
    return ~(np.abs(dist) > band) & outside


def _anchored_distances(block: np.ndarray, subsets: np.ndarray,
                        anchors: np.ndarray):
    """The fast path: distances to every subset's hyperplane
    theta . (x - x_a) = 1, a the subset's anchor, from one batched solve of
    (x_i - x_a) theta = 1 over its points x_i. A singular system makes every
    distance NaN; a huge or non-finite theta leaves the anchor, at distance
    -1 / |theta|, on the band, or its distances NaN."""
    t, n, d = block.shape
    lo, hi = anchors.min(initial=0), anchors.max(initial=0) + 1
    # x_i - x_a for every point i and anchor a in lo..hi-1, in (n, T, d)
    # order, so that the subtraction and the gather move whole (T, d) slabs
    points = np.ascontiguousarray(block.transpose(1, 0, 2))
    shifted = (points[None] - points[lo:hi, None]).reshape(-1, t, d)
    systems = np.take(shifted, (anchors - lo)[:, None] * n + subsets,
                      axis=0).transpose(2, 0, 1, 3)
    try:
        theta = np.linalg.solve(systems, np.ones((d, 1)))[..., 0]
    except np.linalg.LinAlgError:
        return np.full((t, len(subsets), n), np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.einsum("tij,tij->ti", theta, theta))
        # a contiguous (T, d, n) operand halves the matmul time of a view
        dist = np.matmul(theta, np.ascontiguousarray(block.swapaxes(-1, -2)))
        dist -= 1.0 + dist[:, np.arange(len(subsets)), anchors, None]
        dist /= norms[..., None]
    return dist


def _reference_distances(pts: np.ndarray, subsets: np.ndarray, row: int):
    """The reference path for one point set pts (n, d): distances along the
    SVD unit normals of every subset. The degeneracy rule goes first, over
    every subset, then the on-band test; each raises its error, naming
    ``row``, for the first subset (and point) in order."""
    scale = coordinate_scale(pts)
    sub = pts[subsets]
    _, sv, vt = np.linalg.svd(sub[:, 1:] - sub[:, :1])
    bad = degenerate(sv, scale)
    if bad.any():
        raise DegenerateSubsetError(subsets[np.argmax(bad)], row)
    normals = vt[:, -1]
    dist = normals @ pts.T - np.einsum("ij,ij->i", normals, sub[:, 0])[:, None]
    on = _on_band(dist, _outside(len(pts), subsets), scale)
    if on.any():
        i, j = np.argwhere(on)[0]
        raise DegeneracyError(subsets[i], j, row)
    return dist


def signed_distances(coords: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Distance of every point to the affine hull of every subset.

    Returns shape (len(subsets), n) for coordinates of shape (n, d), and
    (T, len(subsets), n) for a block of T point sets of shape (T, n, d),
    with an arbitrary but consistent sign per subset. The fast path solves
    relative to the anchor, the smallest index outside the subset, so a
    singular system means degenerate input; it rejects a point set whose
    solve is singular or non-finite, that has an outside point on the band,
    or that has no anchor (n = d). Rejected point sets go, in order, to the
    reference path, which raises the error naming their row or supplies
    their distances.
    """
    block = _as_block(coords)
    n, d = block.shape[1:]
    outside = _outside(n, subsets)
    scale = coordinate_scale(block)
    # with n = d a subset has no anchor: argmax names one of its own points,
    # whose zero row makes the system singular
    dist = _anchored_distances(block, subsets, np.argmax(outside, axis=1))
    rejected = _on_band(dist, outside, scale).any(axis=(1, 2)) | (n == d)
    for r in np.flatnonzero(rejected):
        dist[r] = _reference_distances(block[r], subsets, r)
    return dist if np.ndim(coords) == 3 else dist[0]


def _side_table(coords: np.ndarray, subsets: np.ndarray):
    """Side counts of every subset in every point set of a (T, n, d) block.

    Yields (rows, cols, below), slices and a table: below[t, j] counts the
    points outside subset subsets[cols][j] strictly below its hyperplane in
    point set coords[rows][t]; the other n - d - below lie strictly above,
    as none is on the band. Each numpy call covers at most _BLOCK (point
    set, subset) pairs: max(1, _BLOCK // c) point sets at a time, and chunks
    of subsets when c > _BLOCK. Point sets come in order, so the error
    raised, naming the row of its point set, is the one they would raise
    one at a time.
    """
    c = len(subsets)
    outside = _outside(coords.shape[1], subsets)
    step = max(1, _BLOCK // c)
    for lo in range(0, len(coords), step):
        for s0 in range(0, c, _BLOCK):
            rows, cols = slice(lo, lo + step), slice(s0, s0 + _BLOCK)
            try:
                dist = signed_distances(coords[rows], subsets[cols])
            except (DegenerateSubsetError, DegeneracyError) as err:
                err.row += lo
                raise
            yield rows, cols, ((dist < 0) & outside[cols]).sum(axis=2)


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


def general_position_check(ps, max_reported: int = 16
                           ) -> GeneralPositionReport:
    """Affine-independence audit of all (or sampled) (d+1)-point subsets.

    Exhaustive for n <= GP_EXHAUSTIVE_MAX_N, otherwise a fixed-seed random
    sample of GP_SAMPLES subsets; the report lists the first max_reported
    violations. A subset fails by the dependence rule of the SVD reference
    path, ``mathcore.degenerate``: sigma_min(edges) <= DEGENERACY_RTOL *
    max(sigma_max, max |coordinate|).
    """
    coords = ps.coords
    n, d = ps.n, ps.d
    size = min(d + 1, n)
    if n <= GP_EXHAUSTIVE_MAX_N:
        subs = subset_array(n, size)
        exhaustive = True
    else:
        rng = np.random.default_rng(20240 + size)  # fixed seed: report is deterministic
        rows = np.broadcast_to(np.arange(n, dtype=np.intp), (GP_SAMPLES, n))
        subs = np.sort(rng.permuted(rows, axis=1)[:, :size], axis=1)
        exhaustive = False
    pts = coords[subs]
    sv = np.linalg.svd(pts[:, 1:] - pts[:, :1], compute_uv=False)
    bad = degenerate(sv, coordinate_scale(coords))
    violations = [tuple(int(i) for i in subs[i])
                  for i in np.nonzero(bad)[0][:max_reported]]
    return GeneralPositionReport(passed=not bad.any(), violations=violations,
                                 checked=len(subs), exhaustive=exhaustive)
