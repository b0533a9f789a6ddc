"""Exact combinatorial geometry on finite point sets.

A d-subset of an n-point set in general position spans an affine hyperplane;
counting the points strictly on each open side classifies the subset as a
k-facet (exactly k points on one side). Facets of the convex hull are the
0-facets, and two facets are estranged when their vertex sets are disjoint.

Enumeration is brute force over all C(n, d) subsets, on blocks of point
sets: profiles, facet masks and the Monte Carlo kernels all count sides
through ``_side_table``, and a single point set is the block with T = 1.
One size gate, SUBSET_CAP, bounds C(n, d) in ``subset_array`` and c
subsets' (d+1)-set table, min(c (n - d), C(n, d + 1)), in ``_check_subsets``.
Every side comes from ``signed_distances``: the sign of the orientation
determinant over S u {j} for point j and subset S. ``disjoint_pairs`` is
the one test of which subsets share no point.

One degeneracy contract, in ``_orientations``: a (d+1)-set is degenerate
when one of its d-subsets fails the rule of ``mathcore.degenerate`` or its
exact orientation is zero. The enumeration raises its one error type,
DegeneracyError, on such sets, naming the point set's row, rather than
tie-break (Gaussian inputs reach them with probability zero), and
``general_position_check`` reports every one.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .mathcore import (coordinate_scale, degenerate, orientation_signs,
                       signed_volumes)

_BLOCK = 16384  # pairs per numpy call of _side_table and disjoint_pairs
SUBSET_CAP = 200_000  # largest subset list or (d+1)-set table built


class ResourceCapError(ValueError):
    """Requested parameters exceed the configured desk-scale caps."""


class DegeneracyError(ValueError):
    """A subset whose points are affinely dependent at tolerance
    (``point_index`` None), or a point outside the subset on its
    hyperplane: their exact orientation is zero.

    ``row`` is the index of the point set in the block that raised (0 for
    a single point set).
    """

    def __init__(self, subset, point_index: int | None = None, row: int = 0):
        self.subset = tuple(int(i) for i in subset)
        self.point_index = None if point_index is None else int(point_index)
        self.row = int(row)
        super().__init__(
            f"affinely dependent subset {self.subset}" if point_index is None
            else f"point {self.point_index} lies on the hyperplane of subset "
            f"{self.subset}")


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


def _as_block(coords) -> np.ndarray:
    """A (T, n, d) float block; one point set of shape (n, d) becomes T = 1."""
    coords = np.asarray(coords, dtype=float)
    return coords.reshape((-1,) + coords.shape[-2:])


def _index_array(subsets) -> np.ndarray:
    """A subset list as intp; floats and booleans are refused, not cast."""
    subsets = np.asarray(subsets)
    if subsets.size and subsets.dtype.kind not in "iu":
        raise ValueError(f"subsets must hold integers, not {subsets.dtype}")
    return np.ascontiguousarray(subsets, dtype=np.intp)


def subset_array(n: int, d: int) -> np.ndarray:
    """All d-subsets of range(n) in lexicographic order, one per row.
    C(n, d) > SUBSET_CAP raises ResourceCapError before any is listed."""
    if math.comb(n, d) > SUBSET_CAP:
        raise ResourceCapError(f"C({n}, {d}) = {math.comb(n, d)} exceeds "
                               f"the subset cap {SUBSET_CAP}")
    combos = list(itertools.combinations(range(n), d))
    return np.array(combos, dtype=np.intp).reshape(len(combos), d)


def _edge_sv(pts: np.ndarray) -> np.ndarray:
    """Singular values of the edges from the first point of each tuple of
    points (..., k, d), for the rule of ``degenerate``."""
    return np.linalg.svd(pts[..., 1:, :] - pts[..., :1, :], compute_uv=False)


def signed_distances(coords: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Sides of every point relative to every subset's hyperplane, int8
    (c, n) for coordinates (n, d) and (T, c, n) for a block: -1 or +1
    outside the subset and 0 on its own points, by the degeneracy contract.
    Every side count of the enumeration comes from here.

    Point j and subset S take the sign of det [x_s, 1; x_j, 1], S then j,
    from ``_orientations``. In the first point set that breaks the contract,
    its first subset that fails the rule raises DegeneracyError with no
    point, else its first (subset, point) of zero orientation raises it with
    that point, each naming the point set's row.
    """
    block = _as_block(coords)
    t, n, d = block.shape
    if not isinstance(subsets, _CheckedSubsets):
        subsets = _check_subsets(n, d, subsets)
    _, index, flip, outside = subsets.table
    dets, bad = _orientations(block, subsets)
    for r in np.flatnonzero(bad.any(axis=1) | (dets == 0).any(axis=1))[:1]:
        if bad[r].any():
            raise DegeneracyError(subsets[np.argmax(bad[r])], row=r)
        zero = outside[np.take(dets[r], index).ravel() == 0]
        raise DegeneracyError(subsets[zero[0] // n], zero[0] % n, r)
    neg = (np.take(dets < 0, index, axis=1) ^ flip).view(np.int8)
    sides = np.zeros((t, len(subsets), n), dtype=np.int8)
    sides.reshape(t, -1)[:, outside] = np.subtract(
        1, 2 * neg, dtype=np.int8).reshape(t, -1)
    return sides if np.ndim(coords) == 3 else sides[0]


def _orientations(block: np.ndarray, subsets) -> tuple[np.ndarray, np.ndarray]:
    """The degeneracy contract on a (T, n, d) block and a checked subset
    list: bad (T, c), the subsets that fail the rule of ``degenerate``, and
    dets (T, m) of the table's sets: det E by ``signed_volumes``, its exact
    sign where that is not sure, 0 on a set with a bad subset. The SVD runs
    only on subsets no cleared set covers, and the exact sign only on
    unsure sets that contain no bad subset."""
    n, d = block.shape[1:]
    sets, index = subsets.table[:2]
    scale = coordinate_scale(block)
    parts = [signed_volumes(np.take(block, part[:, 1:], axis=1)
                            - np.take(block, part[:, :1], axis=1),
                            scale[:, None])
             for part in np.split(sets, range(_BLOCK, len(sets), _BLOCK))]
    dets, sure, clear = (np.concatenate(p, axis=1) for p in zip(*parts))
    bad = np.zeros((len(block), len(subsets)), dtype=bool)
    # with every set cleared, every subset is covered unless it has no set
    for r in np.flatnonzero(~clear.all(axis=1) | (n == d)):
        covered = np.take(clear[r], index).any(axis=1)
        if covered.all() and sure[r].all():
            continue
        rest = np.flatnonzero(~covered)
        for part in np.split(rest, range(_BLOCK, len(rest), _BLOCK)):
            bad[r, part] = degenerate(_edge_sv(block[r, subsets[part]]),
                                      scale[r])
        unsure = np.setdiff1d(np.flatnonzero(~sure[r]), index[bad[r]])
        dets[r, unsure] = (-1) ** d * orientation_signs(block[r, sets[unsure]])
        dets[r, index[bad[r]]] = 0
    return dets, bad


class _CheckedSubsets(np.ndarray):
    """A checked subset list; ``table`` is its ``_orientation_table``."""


def _check_subsets(n: int, d: int, subsets) -> _CheckedSubsets:
    """The subset list as intp, checked for point sets (n, d) and the cap."""
    subsets = _index_array(subsets)
    if subsets.ndim != 2 or subsets.shape[1] != d:
        raise ValueError(f"subsets must be a 2-D array of width d = {d}, "
                         f"not of shape {subsets.shape}")
    if min(len(subsets) * (n - d), math.comb(n, d + 1)) > SUBSET_CAP:
        raise ResourceCapError(f"C({n}, {d + 1}) = {math.comb(n, d + 1)} "
                               f"exceeds the subset cap {SUBSET_CAP}")
    checked = subsets.view(_CheckedSubsets)
    checked.table = _orientation_table(n, d, subsets.tobytes())
    return checked


@functools.lru_cache(maxsize=8)
def _orientation_table(n: int, d: int, key: bytes):
    """(sets, index, flip, outside) for the subset list with bytes ``key``:
    the distinct sorted (d+1)-sets S u {j}, j outside S, in rows of sets;
    the row of S u {j} in index[S, j]; flip[S, j], True where an odd number
    of points of S lie below j, so that the orientation of S then j is the
    determinant over S u {j}, negated where flip, up to a sign per S; and
    the flat positions of the (S, j) in a (c, n) array. An entry outside
    range(n), or a point twice in a subset, raises ValueError."""
    subsets = np.frombuffer(key, dtype=np.intp).reshape(-1, d)
    c = len(subsets)
    if np.any((subsets < 0) | (subsets >= n)):
        raise ValueError(f"subset entries must lie in [0, {n})")
    if np.any(np.diff(np.sort(subsets, axis=1), axis=1) == 0):
        raise ValueError("a subset repeats a point")
    mask = np.ones((c, n), dtype=bool)
    mask[np.arange(c)[:, None], subsets] = False
    outside = np.flatnonzero(mask)
    points = (outside % n).reshape(c, n - d)
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
    return sets[first], index.reshape(c, n - d), flip, outside


def _side_table(coords: np.ndarray, subsets: np.ndarray):
    """Side counts of every subset in every point set of a (T, n, d) block.

    Yields (rows, below), a slice and a table: below[t, j] counts the points
    outside subset subsets[j] strictly below its hyperplane in point set
    coords[rows][t]; the other n - d - below lie strictly above. The sides come
    from ``signed_distances`` on the list checked once, one call per chunk of
    max(1, _BLOCK // max(c, m)) point sets for c subsets in m (d+1)-sets, so
    each numpy call covers at most _BLOCK pairs. An error names its row.
    """
    t, n, d = coords.shape
    subsets = _check_subsets(n, d, subsets)
    step = max(1, _BLOCK // max(1, len(subsets), len(subsets.table[0])))
    for lo in range(0, t, step):
        try:
            sides = signed_distances(coords[lo:lo + step], subsets)
        except DegeneracyError as err:
            err.row += lo
            raise
        # einsum counts along the short last axis in half the time of sum
        yield slice(lo, lo + step), np.einsum("tcn->tc", sides < 0,
                                              dtype=np.intp)


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
    for rows, below in _side_table(block, subsets):
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
    m = block.shape[1] - block.shape[2]
    mask = np.empty((len(block), len(subsets)), dtype=bool)
    for rows, below in _side_table(block, subsets):
        mask[rows] = (below == 0) | (below == m)
    return mask if np.ndim(coords) == 3 else mask[0]


def facet_set(ps) -> FacetSet:
    """Subsets whose hyperplane has all outside points strictly on one side."""
    subsets = subset_array(ps.n, ps.d)
    mask = facet_mask(ps.coords, subsets)
    facets = [tuple(int(i) for i in row) for row in subsets[mask]]
    return FacetSet(n=ps.n, d=ps.d, facets=facets)


def disjoint_pairs(subsets) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i < j, of the rows of ``subsets`` that share no
    point, in row-major order. A negative entry raises ValueError.

    Rows are compared through their 0/1 incidence matrix: row i meets the
    rows after it in one matrix product, over blocks of at most _BLOCK
    pairs, so any number of points works.
    """
    subsets = _index_array(subsets)
    if np.any(subsets < 0):
        raise ValueError("subset entries must be non-negative")
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
    """Affine-independence audit of every (d+1)-point subset, listing the
    first max_reported violations in lexicographic order: a set fails by
    the enumeration's own contract code, ``_orientations`` on the full
    subset list. With n <= d the one subset, all n points, fails by the
    rule of ``mathcore.degenerate`` alone. A negative max_reported, or C(n, d)
    or C(n, d + 1) over SUBSET_CAP, raises before any table is built."""
    n, d = ps.n, ps.d
    if max_reported < 0:
        raise ValueError(f"max_reported must be >= 0, not {max_reported}")
    block = _as_block(ps.coords)
    if n <= d:
        subs = subset_array(n, n)
        bad = degenerate(_edge_sv(block[0, subs]), coordinate_scale(block))
    else:
        subsets = _check_subsets(n, d, subset_array(n, d))
        subs = subsets.table[0]
        bad = _orientations(block, subsets)[0][0] == 0
    violations = [tuple(int(i) for i in subs[i])
                  for i in np.nonzero(bad)[0][:max_reported]]
    return GeneralPositionReport(passed=not bad.any(), violations=violations,
                                 checked=len(subs))
