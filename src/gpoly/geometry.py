"""Exact combinatorial geometry on finite point sets.

A d-subset of an n-point set in general position spans an affine hyperplane;
counting the points strictly on each open side classifies the subset as a
k-facet (exactly k points on one side). Facets of the convex hull are the
0-facets, and two facets are estranged when their vertex sets are disjoint.

Enumeration is brute force over all C(n, d) subsets: at desk scale this is
exact, dimension-generic, and fast once the per-subset linear algebra is
batched. Numeric degeneracy (a point within the on-band of a hyperplane, or
an affinely dependent subset) raises rather than tie-breaking silently,
since Gaussian inputs hit it with probability zero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

ON_BAND_RTOL = 1e-9
AFFINE_DEP_RTOL = 1e-9

_BLOCK = 16384  # subsets per batched linear-algebra block


class DegenerateSubsetError(ValueError):
    """The defining points of a subset are affinely dependent at tolerance."""

    def __init__(self, subset):
        subset = tuple(int(i) for i in subset)
        super().__init__(f"affinely dependent subset {subset}")
        self.subset = subset


class DegeneracyError(ValueError):
    """A point outside the subset lies in the on-band of its hyperplane."""

    def __init__(self, subset, point_index: int):
        subset = tuple(int(i) for i in subset)
        super().__init__(f"point {point_index} lies on the hyperplane of "
                         f"subset {subset} at tolerance")
        self.subset = subset
        self.point_index = point_index


@dataclass(frozen=True, eq=False)
class Hyperplane:
    """Oriented affine hull: unit normal and offset with offset >= 0.

    When the hull passes through the origin the orientation tie-break makes
    the first nonzero normal coordinate positive, so the representation is
    deterministic.
    """

    normal: np.ndarray
    offset: float


@dataclass(frozen=True)
class SideCount:
    below: int
    above: int
    on: int


@dataclass(frozen=True, eq=False)
class KFacetProfile:
    """Counts e[k] of k-facets for k = 0..n-d."""

    n: int
    d: int
    e: np.ndarray

    def to_csv(self, fh) -> None:
        fh.write("k,e_k\n")
        for k, ek in enumerate(self.e):
            fh.write(f"{k},{int(ek)}\n")


@dataclass(frozen=True, eq=False)
class FacetSet:
    """The 0-facets (convex hull facets), as sorted index tuples."""

    n: int
    d: int
    facets: list[tuple[int, ...]]

    def to_csv(self, fh) -> None:
        fh.write("facet\n")
        for f in self.facets:
            fh.write(" ".join(str(i) for i in f) + "\n")


@dataclass(frozen=True)
class GeneralPositionReport:
    passed: bool
    violations: list[tuple[int, ...]]
    checked: int
    exhaustive: bool


def _coordinate_scale(coords: np.ndarray):
    """Largest |coordinate| (1 when all are zero); one value per point set
    for a (T, n, d) block."""
    if coords.ndim == 2:
        scale = float(np.max(np.abs(coords)))
        return scale if scale > 0 else 1.0
    scale = np.max(np.abs(coords), axis=(1, 2))
    return np.where(scale > 0, scale, 1.0)


def subset_array(n: int, d: int) -> np.ndarray:
    """All d-subsets of range(n) in lexicographic order, one per row."""
    combos = list(itertools.combinations(range(n), d))
    return np.array(combos, dtype=np.intp).reshape(len(combos), d)


def _hyperplane_arrays(pts: np.ndarray, scale: float, subset):
    """Unit normal and offset of the affine hull of pts (d points in R^d).

    Handles hulls through the origin and raises DegenerateSubsetError on
    affine dependence. Orientation: offset >= 0, ties broken by making the
    first nonzero normal coordinate positive.
    """
    d = pts.shape[1]
    tie = ON_BAND_RTOL * scale
    if d == 1:
        x = float(pts[0, 0])
        if abs(x) <= tie:
            return np.array([1.0]), abs(x)
        return (np.array([1.0]), x) if x > 0 else (np.array([-1.0]), -x)
    edges = pts[1:] - pts[0]
    _, sv, vt = np.linalg.svd(edges)
    if sv[-1] <= AFFINE_DEP_RTOL * max(sv[0], scale):
        raise DegenerateSubsetError(subset)
    normal = vt[-1]
    offset = float(normal @ pts[0])
    if offset < -tie:
        normal, offset = -normal, -offset
    elif abs(offset) <= tie:
        j = int(np.argmax(np.abs(normal) > tie))
        if normal[j] < 0:
            normal = -normal
        offset = abs(offset)
    return normal, offset


def hyperplane_through(ps, s) -> Hyperplane:
    """Oriented hyperplane through the d points of subset s of ps."""
    idx = list(s)
    if len(idx) != ps.d:
        raise ValueError(f"subset size {len(idx)} != d = {ps.d}")
    scale = _coordinate_scale(ps.coords)
    normal, offset = _hyperplane_arrays(ps.coords[idx], scale, idx)
    normal = normal.copy()
    normal.flags.writeable = False
    return Hyperplane(normal=normal, offset=offset)


def _distances_single(coords: np.ndarray, subset, scale: float) -> np.ndarray:
    normal, offset = _hyperplane_arrays(coords[list(subset)], scale, subset)
    return coords @ normal - offset


def signed_distances(coords: np.ndarray, subsets: np.ndarray,
                     scale=None) -> np.ndarray:
    """Distance of every point to the affine hull of every subset.

    Returns shape (len(subsets), n) for coordinates of shape (n, d), and
    (T, len(subsets), n) for a block of T point sets of shape (T, n, d),
    with ``scale`` then one value per point set. The sign convention per
    subset is arbitrary but internally consistent, which is all side
    counting needs. Fast path: solve A theta = 1 per subset, batched; a
    point set with a hull through the origin (singular A) falls back to an
    SVD normal per subset.
    """
    coords = np.asarray(coords, dtype=float)
    if scale is None:
        scale = _coordinate_scale(coords)
    if coords.ndim == 3:
        return _signed_distances_block(
            coords, subsets, np.broadcast_to(scale, len(coords)))
    theta = _solve_ones(coords[subsets])
    if theta is None:
        return np.stack([_distances_single(coords, row, scale)
                         for row in subsets])
    norms = np.sqrt(np.einsum("ij,ij->i", theta, theta))
    return ((coords @ theta.T - 1.0) / norms).T


def _solve_ones(a: np.ndarray):
    """theta with A theta = 1 for every trailing (d, d) matrix of a, or None
    when one of them is singular or the solve overflows."""
    try:
        theta = np.linalg.solve(a, np.ones((a.shape[-1], 1)))[..., 0]
    except np.linalg.LinAlgError:
        return None
    return theta if np.all(np.isfinite(theta)) else None


def _signed_distances_block(coords: np.ndarray, subsets: np.ndarray,
                            scales) -> np.ndarray:
    theta = _solve_ones(coords[:, subsets])  # (T, c, d)
    if theta is None:
        return np.stack([signed_distances(c, subsets, s)
                         for c, s in zip(coords, scales)])
    norms = np.sqrt(np.einsum("tij,tij->ti", theta, theta))
    return (np.einsum("tcj,tnj->tcn", theta, coords) - 1.0) / norms[..., None]


def on_band_hit(dist: np.ndarray, band, outside: np.ndarray | None = None):
    """First (row, column) of ``dist`` with |dist| <= band, or None.

    ``band`` broadcasts against ``dist`` (one value, or one per row as a
    column); ``outside`` masks out each subset's own points.
    """
    on = np.abs(dist) <= band
    if outside is not None:
        on &= outside
    if not on.any():
        return None
    i, j = np.argwhere(on)[0]
    return int(i), int(j)


def _side_table(coords: np.ndarray, subsets: np.ndarray, scale: float):
    """Per-subset (below, above) counts over points outside the subset.

    Raises DegeneracyError when any outside point sits in the on-band.
    """
    n = coords.shape[0]
    c, d = subsets.shape
    below = np.empty(c, dtype=np.int64)
    above = np.empty(c, dtype=np.int64)
    band = ON_BAND_RTOL * scale
    for lo in range(0, c, _BLOCK):
        block = subsets[lo:lo + _BLOCK]
        dist = signed_distances(coords, block, scale)
        outside = np.ones_like(dist, dtype=bool)
        np.put_along_axis(outside, block, False, axis=1)
        hit = on_band_hit(dist, band, outside)
        if hit is not None:
            raise DegeneracyError(block[hit[0]], hit[1])
        b = ((dist < -band) & outside).sum(axis=1)
        below[lo:lo + len(block)] = b
        above[lo:lo + len(block)] = (n - d) - b
    return below, above


def side_counts(ps, s, h: Hyperplane) -> SideCount:
    """Classify every point of ps outside subset s against hyperplane h."""
    scale = _coordinate_scale(ps.coords)
    band = ON_BAND_RTOL * scale
    dist = ps.coords @ h.normal - h.offset
    outside = np.ones(ps.n, dtype=bool)
    outside[list(s)] = False
    on = (np.abs(dist) <= band) & outside
    if on.any():
        raise DegeneracyError(tuple(s), int(np.argwhere(on)[0][0]))
    below = int(((dist < -band) & outside).sum())
    above = int(((dist > band) & outside).sum())
    return SideCount(below=below, above=above, on=0)


def profile_counts(coords: np.ndarray, subsets: np.ndarray | None = None) -> np.ndarray:
    """k-facet counts e[0..n-d] for raw coordinates (the enumeration core).

    A subset with side counts (b, a) is both a b-facet and an a-facet; it is
    counted once when balanced (b == a, only possible for n - d even).
    """
    coords = np.asarray(coords, dtype=float)
    n, d = coords.shape
    if subsets is None:
        subsets = subset_array(n, d)
    below, above = _side_table(coords, subsets, _coordinate_scale(coords))
    m = n - d
    e = np.bincount(below, minlength=m + 1)
    unbalanced = above != below
    e += np.bincount(above[unbalanced], minlength=m + 1)
    return e.astype(np.int64)


def kfacet_profile(ps) -> KFacetProfile:
    """Exhaustive k-facet profile of a point set in general position."""
    if ps.n < ps.d + 1:
        raise ValueError("profile needs n >= d + 1")
    e = profile_counts(ps.coords)
    return KFacetProfile(n=ps.n, d=ps.d, e=e)


def facet_mask(coords: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Boolean mask over subsets: True where one open side is empty."""
    coords = np.asarray(coords, dtype=float)
    below, above = _side_table(coords, subsets, _coordinate_scale(coords))
    return (below == 0) | (above == 0)


def facet_set(ps) -> FacetSet:
    """Subsets whose hyperplane has all outside points strictly on one side."""
    subsets = subset_array(ps.n, ps.d)
    mask = facet_mask(ps.coords, subsets)
    facets = [tuple(int(i) for i in row) for row in subsets[mask]]
    return FacetSet(n=ps.n, d=ps.d, facets=facets)


def estranged_pair_count(fs: FacetSet) -> int:
    """Unordered facet pairs with disjoint vertex sets.

    For n = 2d only complementary subsets can be disjoint, so the scan
    short-circuits to a complement lookup.
    """
    masks = [sum(1 << i for i in f) for f in fs.facets]
    if fs.n == 2 * fs.d:
        full = (1 << fs.n) - 1
        mask_set = set(masks)
        return sum(1 for m in masks if (full ^ m) in mask_set) // 2
    count = 0
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if masks[i] & masks[j] == 0:
                count += 1
    return count


def general_position_check(ps, exhaustive_max_n: int = 16,
                           samples: int = 10000,
                           max_reported: int = 16) -> GeneralPositionReport:
    """Affine-independence audit of all (or sampled) (d+1)-point subsets.

    Exhaustive for n <= exhaustive_max_n, otherwise a fixed-seed random
    sample of subsets. A subset fails when the determinant of its edge
    matrix is below AFFINE_DEP_RTOL times its Hadamard bound.
    """
    coords = ps.coords
    n, d = ps.n, ps.d
    size = min(d + 1, n)
    if n <= exhaustive_max_n:
        subs = np.array(list(itertools.combinations(range(n), size)),
                        dtype=np.intp)
        exhaustive = True
    else:
        rng = np.random.default_rng(20240 + size)  # fixed seed: report is deterministic
        subs = np.array([np.sort(rng.choice(n, size=size, replace=False))
                         for _ in range(samples)], dtype=np.intp)
        exhaustive = False
    pts = coords[subs]
    edges = pts[:, 1:, :] - pts[:, :1, :]
    if size - 1 == d:
        dets = np.abs(np.linalg.det(edges))
    else:  # n <= d: test the whole set's edge Gram instead
        gram = edges @ np.transpose(edges, (0, 2, 1))
        dets = np.sqrt(np.maximum(np.linalg.det(gram), 0.0))
    norms = np.linalg.norm(edges, axis=2)
    hadamard = np.prod(norms, axis=1)
    bad = dets <= AFFINE_DEP_RTOL * hadamard
    violations = [tuple(int(i) for i in subs[i])
                  for i in np.nonzero(bad)[0][:max_reported]]
    return GeneralPositionReport(passed=not bad.any(), violations=violations,
                                 checked=len(subs), exhaustive=exhaustive)
