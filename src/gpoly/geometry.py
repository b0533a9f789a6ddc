"""Exact combinatorial geometry on finite point sets.

A d-subset of an n-point set in general position spans an affine hyperplane;
counting the points strictly on each open side classifies the subset as a
k-facet (exactly k points on one side). Facets of the convex hull are the
0-facets, and two facets are estranged when their vertex sets are disjoint.

Enumeration is brute force over all C(n, d) subsets, on blocks of point
sets: profiles, facet masks and the Monte Carlo kernels all count sides
through ``_side_table``, and a single point set is the block with T = 1.
``disjoint_pairs`` is the one test of which subsets share no point.

One degeneracy contract. The side of point j relative to subset S is the
sign of the ``mathcore.signed_volumes`` determinant over S u {j}. A point
set is counted from those signs when all are sure and each subset lies in
a (d+1)-set the kernel's screen clears, so that none is dependent by the
rule of ``mathcore.degenerate``, which ``general_position_check`` shares.
Any other point set takes the reference path, SVD normals, where the rule
and then the on-band test |distance| <= DEGENERACY_RTOL * max |coordinate|
raise, naming the point set's row, rather than tie-break, since Gaussian
inputs reach them with probability zero.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .mathcore import (DEGENERACY_RTOL, coordinate_scale, degenerate,
                       signed_volumes)

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


def _reference_distances(pts: np.ndarray, subsets: np.ndarray, row: int):
    """The reference path for one point set pts (n, d) or a block (T, n, d):
    distances along the SVD unit normals of every subset. In each point set
    the degeneracy rule goes first, over every subset, then the on-band
    test; the first point set that fails raises for its first subset (and
    point), naming its row, ``row`` plus its index in the block."""
    block = _as_block(pts)
    scale = coordinate_scale(block)
    sub = block[:, subsets]
    _, sv, vt = np.linalg.svd(sub[..., 1:, :] - sub[..., :1, :])
    bad = degenerate(sv, scale[:, None])
    normals = vt[..., -1, :]
    dist = normals @ block.swapaxes(1, 2) - np.einsum(
        "tij,tij->ti", normals, sub[..., 0, :])[..., None]
    # on the band: within DEGENERACY_RTOL * scale, or not a number
    on = ~(np.abs(dist) > DEGENERACY_RTOL * scale[:, None, None]) \
        & _outside(block.shape[1], subsets)
    failed = bad.any(axis=1) | on.any(axis=(1, 2))
    if failed.any():
        r = int(np.argmax(failed))
        if bad[r].any():
            raise DegenerateSubsetError(subsets[np.argmax(bad[r])], row + r)
        i, j = np.argwhere(on[r])[0]
        raise DegeneracyError(subsets[i], j, row + r)
    return dist if np.ndim(pts) == 3 else dist[0]


def signed_distances(coords: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Distances of every point to every subset's affine hull, (c, n) for
    coordinates (n, d) and (T, c, n) for a block, by the reference path
    (``_reference_distances``), which ``_side_table`` takes only for the
    point sets its determinants do not decide."""
    return _reference_distances(coords, subsets, 0)


@functools.lru_cache(maxsize=8)
def _orientation_table(n: int, d: int, key: bytes):
    """(sets, index, flip) for the subset list with bytes ``key``: the
    distinct sorted (d+1)-sets S u {j}, j outside S, in rows of sets; the
    row of S u {j} in index[S, j]; and flip[S, j], True where an odd number
    of points of S lie below j, so that the orientation of S then j is the
    determinant over S u {j}, negated where flip, up to a sign per S."""
    subsets = np.frombuffer(key, dtype=np.intp).reshape(-1, d)
    c = len(subsets)
    points = np.nonzero(_outside(n, subsets))[1].reshape(c, n - d)
    sets = np.sort(np.concatenate(
        [np.broadcast_to(subsets[:, None], (c, n - d, d)), points[..., None]],
        axis=2), axis=2).reshape(-1, d + 1)
    order = np.lexsort(sets.T[::-1])
    sets = sets[order]
    first = np.ones(len(sets), dtype=bool)
    first[1:] = (sets[1:] != sets[:-1]).any(axis=1)
    index = np.empty(len(sets), dtype=np.intp)
    index[order] = np.cumsum(first) - 1
    flip = (subsets[:, None] < points[..., None]).sum(axis=2) % 2 == 1
    return sets[first], index.reshape(c, n - d), flip


def _side_table(coords: np.ndarray, subsets: np.ndarray):
    """Side counts of every subset in every point set of a (T, n, d) block.

    Yields (rows, cols, below), slices and a table: below[t, j] counts the
    points outside subset subsets[cols][j] strictly below its hyperplane in
    point set coords[rows][t]; the other n - d - below lie strictly above.
    The signs come from ``signed_volumes``, one determinant per (d+1)-set
    of the list, shared by every subset in it. Each numpy call covers at
    most _BLOCK (point set, subset or set) pairs: max(1, _BLOCK // max(c,
    m)) point sets at a time, m sets, and chunks of sets and of subsets
    past _BLOCK. A point set the signs do not decide takes
    ``signed_distances``, in order, so the error raised, naming the row of
    its point set, is the one they would raise one at a time.
    """
    t, n, d = coords.shape
    c = len(subsets)
    sets, index, flip = _orientation_table(
        n, d, np.ascontiguousarray(subsets, dtype=np.intp).tobytes())
    step = max(1, _BLOCK // max(c, len(sets)))
    for lo in range(0, t, step):
        block = coords[lo:lo + step]
        scale = coordinate_scale(block)[:, None]
        parts = [signed_volumes(np.take(block, part[:, 1:], axis=1)
                                - np.take(block, part[:, :1], axis=1), scale)
                 for part in np.split(sets, range(_BLOCK, len(sets), _BLOCK))]
        dets, sure, clear = (np.concatenate(p, axis=1) for p in zip(*parts))
        decided = sure.all(axis=1)
        # every subset needs one cleared set; look where one is missed
        doubt = np.flatnonzero(decided & ~(clear.all(axis=1) & (n > d)))
        decided[doubt] = clear[doubt][:, index].any(axis=2).all(axis=1)
        rest = np.flatnonzero(~decided)
        for s0 in range(0, c, _BLOCK):
            rows, cols = slice(lo, lo + step), slice(s0, s0 + _BLOCK)
            below = ((dets < 0)[:, index[cols]] ^ flip[cols]).sum(axis=2)
            if rest.size:
                try:
                    dist = signed_distances(block[rest], subsets[cols])
                except (DegenerateSubsetError, DegeneracyError) as err:
                    err.row = lo + int(rest[err.row])
                    raise
                below[rest] = ((dist < 0) & _outside(n, subsets[cols])
                               ).sum(axis=2)
            yield rows, cols, below


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
    max(sigma_max, max |coordinate|), applied by SVD to the subsets whose
    ``mathcore.signed_volumes`` determinant the screen does not clear.
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
    edges = pts[:, 1:] - pts[:, :1]
    scale = coordinate_scale(coords)
    bad = ~signed_volumes(edges, scale)[2] if size > d \
        else np.ones(len(subs), dtype=bool)
    rows = np.flatnonzero(bad)
    bad[rows] = degenerate(np.linalg.svd(edges[rows], compute_uv=False),
                           scale)
    violations = [tuple(int(i) for i in subs[i])
                  for i in np.nonzero(bad)[0][:max_reported]]
    return GeneralPositionReport(passed=not bad.any(), violations=violations,
                                 checked=len(subs), exhaustive=exhaustive)
