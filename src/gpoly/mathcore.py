"""Numeric substrate: the degeneracy rule, the signed-volume kernel and its
exact fallback, full-dimensional simplex volumes, log binomials, adaptive
1-D quadrature, and derivative-free maximization over boxes.

Everything here is a pure function of its inputs. One rule, with one
tolerance, decides every dependent subset in the package (``degenerate``),
and one kernel computes every determinant (``signed_volumes``): simplex
volumes, the geometry's side counts and general-position audits take their
determinants from it, and apply the rule by SVD only to the matrices its
screen does not clear. A sign the kernel is not sure of comes from
``orientation_signs``, in exact integer arithmetic. Maximization never
assumes unimodality: a dense grid scan is always followed by local
refinement, and the reported value is the best point actually evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import integrate, special

DEGENERACY_RTOL = 1e-9
_U = 2.0 ** -53  # unit roundoff of float64
REFINE_STARTS = 8  # grid cells maximize_boxes refines from, per objective
GRID_BLOCK = 16384  # grid points per call of f: 1-D and 2-D grids take one


class QuadratureError(RuntimeError):
    """Adaptive quadrature hit its subdivision cap before converging."""

    def __init__(self, message: str, value: float, abs_error_estimate: float,
                 evaluations: int):
        super().__init__(message)
        self.value = value
        self.abs_error_estimate = abs_error_estimate
        self.evaluations = evaluations


def coordinate_scale(coords: np.ndarray) -> np.ndarray:
    """Largest |coordinate| of each point set of a (..., m, n) block (1 when
    all are zero)."""
    scale = np.max(np.abs(coords), axis=(-2, -1))
    return np.where(scale > 0, scale, 1.0)


def degenerate(sv: np.ndarray, scale) -> np.ndarray:
    """The degeneracy rule, from the singular values (..., k) of edge
    matrices: sigma_min <= DEGENERACY_RTOL * max(sigma_max, scale). With no
    edges (k = 0) nothing is degenerate."""
    return sv.min(axis=-1, initial=np.inf) <= \
        DEGENERACY_RTOL * np.maximum(sv.max(axis=-1, initial=0.0), scale)


def signed_volumes(edges: np.ndarray, scale):
    """Determinants of edge matrices E (..., d, d) and two masks: sure, det
    E and det of the exact edges that E rounds have the sign of ``dets``;
    clear, ``degenerate`` is False for E and for the edges of any d of its
    d + 1 points. ``scale`` broadcasts against the block. A sign that is
    not sure is for ``orientation_signs`` to decide.

    g = |det| ((d-1) / F^2)^((d-1)/2), F = ||E||_F, is at most sigma_min
    (Guggenheimer, Edelman and Johnson, 1995). LU with partial pivoting
    gives det B with ||B - E||_F <= kappa F, kappa = 1.01 (u + d^2 gamma_d
    2^(d-1)): |B - E| <= gamma_d |L||U| (Higham 2002, Thm 9.3) with growth
    <= 2^(d-1), u for the rounding of E, 1.01 for the rest. If 4 d kappa <=
    1, sigma_min(B) > g / 2, so g > 4 kappa F is sure: no matrix within
    kappa F of B is singular, and sigma_min(E) > g / 4. Clear is sure and
    g > 8 DEGENERACY_RTOL max(d F, sqrt(d) scale): the edges of d of the
    points, from any one of them, are M E with sigma_min(M) >= 1 / sqrt(d)
    and ||M||_2 <= sqrt(d), which leaves a factor 2 for their rounding and
    the SVD's.
    """
    d = edges.shape[-1]
    gamma = d * _U / (1.0 - d * _U)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        kappa = 1.01 * (_U + d * d * gamma * np.exp2(d - 1.0))
        dets = np.linalg.det(edges)
        frob = np.sqrt(np.einsum("...ij,...ij->...", edges, edges))
        g = np.abs(dets) * ((d - 1) / frob ** 2) ** ((d - 1) / 2)
        sure = (g > 4 * kappa * frob) & (4 * d * kappa <= 1)
        clear = sure & (g > 8 * DEGENERACY_RTOL * np.maximum(
            d * frob, math.sqrt(d) * scale))
    return dets, sure, clear


def orientation_signs(points) -> np.ndarray:
    """Exact signs of det [x_i, 1] over the rows x_i of each (d + 1, d)
    matrix of a block (..., d + 1, d), each coordinate the dyadic rational
    it stores: ``np.frexp`` scales each lifted matrix to integers by a
    power of 2, and fraction-free elimination (Bareiss 1968) runs on all of
    them at once, in object arrays of Python ints. Each step swaps up a
    nonzero pivot per matrix, or marks the matrix singular, and divides
    exactly by the last pivot, which ends as the determinant up to the
    sign of the swaps."""
    pts = np.asarray(points, dtype=float)
    if not np.all(np.isfinite(pts)):
        raise ValueError("matrix entries must be finite")
    lifted = np.concatenate([pts, np.ones(pts.shape[:-1] + (1,))], axis=-1)
    mant, exp = np.frexp(lifted.reshape((-1,) + lifted.shape[-2:]))
    ints = (mant * 2.0 ** 53).astype(np.int64)  # entry = ints 2^(exp - 53)
    m = ints.astype(object) << (exp - exp.min(axis=(1, 2), keepdims=True))
    every = np.arange(len(m))
    sign, pivot = np.ones(len(m), dtype=int), np.ones(len(m), dtype=object)
    for k in range(m.shape[1]):
        nonzero = m[:, k:, k] != 0
        found = nonzero.any(axis=1)
        sign[~found] = 0
        p = k + np.argmax(nonzero, axis=1)
        sign[p != k] *= -1
        m[every, k], m[every, p] = m[every, p], m[every, k]
        head = np.where(found, m[:, k, k], 1)  # 1: a singular one goes on
        m[:, k + 1:, k + 1:] = (m[:, k + 1:, k + 1:] * head[:, None, None]
                                - m[:, k + 1:, k:k + 1] * m[:, k:k + 1, k + 1:]
                                ) // pivot[:, None, None]
        pivot = head
    return (sign * np.sign(pivot).astype(int)).reshape(pts.shape[:-2])


def simplex_volume(points):
    """d-dimensional volume |det E| / d! of the simplex on d+1 points in R^d.

    Accepts d+1 points in R^d (one point per row, d >= 1), or a block of T
    such simplices of shape (T, d+1, d), for which it returns an array of T
    volumes; any other shape raises ValueError. E is the (d, d) edge matrix
    x_i - x_0.

    The determinants come from ``signed_volumes``. A simplex is degenerate,
    with volume 0, by the rule of ``degenerate`` on E, at the scale of its
    coordinates; rows the kernel's screen does not clear take the SVD that
    applies the rule, and the others keep their determinant.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim not in (2, 3):
        raise ValueError("points must be a 2-D array, one point per row, "
                         "or a 3-D block of such arrays")
    m, d = pts.shape[-2:]
    if d < 1 or m != d + 1:
        raise ValueError(f"{m} points do not span a full-dimensional simplex "
                         f"in R^{d}")
    block = pts.reshape((-1, m, d))
    edges = block[:, 1:] - block[:, :1]
    if not np.all(np.isfinite(edges)):
        raise ValueError("matrix entries must be finite")
    scale = coordinate_scale(block)
    dets, _, clear = signed_volumes(edges, scale)
    rows = np.flatnonzero(~clear)
    sv = np.linalg.svd(edges[rows], compute_uv=False)
    dets[rows[degenerate(sv, scale[rows])]] = 0.0
    vols = np.abs(dets) / math.factorial(d)
    return float(vols[0]) if pts.ndim == 2 else vols


def log_binomial(n: int, k: int) -> float:
    """ln C(n, k) via log-gamma."""
    if not 0 <= k <= n:
        raise ValueError(f"binomial ({n}, {k}) out of range")
    return float(special.gammaln(n + 1) - special.gammaln(k + 1)
                 - special.gammaln(n - k + 1))


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int


def integrate_1d(f: Callable[[float], float], a: float, b: float,
                 rel_tol: float = 1e-10) -> QuadratureResult:
    """Adaptive Gauss-Kronrod quadrature of f over [a, b].

    Raises QuadratureError (carrying the best value and error estimate) if
    the subdivision cap is reached before the tolerance is met.
    """
    if rel_tol < 1e-13:
        raise ValueError("rel_tol below 1e-13 is not resolvable in float64")
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ValueError("need finite a < b")
    out = integrate.quad(f, a, b, epsabs=1e-300, epsrel=rel_tol,
                         limit=200, full_output=1)
    value, abs_err, info = out[0], out[1], out[2]
    if len(out) > 3:
        raise QuadratureError(str(out[3]), value=value,
                              abs_error_estimate=abs_err,
                              evaluations=int(info["neval"]))
    return QuadratureResult(float(value), float(abs_err), int(info["neval"]))


@dataclass(frozen=True)
class MaximizeResult:
    argmax: np.ndarray
    value: float
    refinements: int
    grid_resolution: float


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section_max(f, lo: float, hi: float, xtol: float):
    """Golden-section ascent on [lo, hi]; returns (best_x, best_f, iters)."""
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    best_x, best_f = (x1, f1) if f1 >= f2 else (x2, f2)
    iters = 0
    while hi - lo > xtol and iters < 200:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            f2 = f(x2)
            if f2 > best_f:
                best_x, best_f = x2, f2
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INVPHI * (hi - lo)
            f1 = f(x1)
            if f1 > best_f:
                best_x, best_f = x1, f1
        iters += 1
    return best_x, best_f, iters


def maximize_1d(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                grid_nodes: int = 2049) -> MaximizeResult:
    """Maximize f on [a, b]: dense grid scan then golden-section refinement.

    f maps an array of points to their values; the grid is one call of f.
    grid_nodes of the form 2^m + 1 keeps successive doublings nested, so
    the reported value is monotone under grid refinement.
    """
    if grid_nodes < 3:
        raise ValueError("grid_nodes must be at least 3")
    xs = np.linspace(a, b, grid_nodes)
    fs = np.asarray(f(xs), dtype=float)
    i = int(np.argmax(fs))
    best_x, best_f = float(xs[i]), float(fs[i])
    lo = float(xs[max(i - 1, 0)])
    hi = float(xs[min(i + 1, grid_nodes - 1)])
    gx, gf, iters = _golden_section_max(lambda x: f(np.array([x]))[0], lo, hi,
                                        xtol=1e-12 * (b - a))
    if gf > best_f:
        best_x, best_f = float(gx), float(gf)
    return MaximizeResult(argmax=np.array([best_x]), value=best_f,
                          refinements=iters,
                          grid_resolution=(b - a) / (grid_nodes - 1))


def maximize_box(f: Callable[[np.ndarray], np.ndarray],
                 box: Sequence[tuple[float, float]],
                 grid_nodes: int = 65) -> MaximizeResult:
    """One-objective ``maximize_boxes``: f maps (N, dim) points to N values."""
    return maximize_boxes(lambda x: np.asarray(f(x), dtype=float)[:, None],
                          box, grid_nodes)[0]


def maximize_boxes(f: Callable[[np.ndarray], np.ndarray],
                   box: Sequence[tuple[float, float]],
                   grid_nodes: int = 65) -> list[MaximizeResult]:
    """Maximize each column of the (N, K) values f gives (N, dim) points over
    a 1- to 3-dimensional box: grid scan (grid_nodes per axis, GRID_BLOCK
    points a call), then one lockstep Nelder-Mead from each column's best
    REFINE_STARTS cells, with iterates clamped to the box."""
    box = [(float(lo), float(hi)) for lo, hi in box]
    if not 1 <= len(box) <= 3:
        raise ValueError("box must have 1 to 3 dimensions")
    if any(hi <= lo for lo, hi in box):
        raise ValueError("box intervals must have positive length")
    los, his = np.array(box).T

    axes = [np.linspace(lo, hi, grid_nodes) for lo, hi in box]
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")],
                   axis=1)  # the mesh goes before the scan
    vals = np.concatenate([np.asarray(f(pts[i:i + GRID_BLOCK]), dtype=float).T
                           for i in range(0, len(pts), GRID_BLOCK)], axis=1)

    orders = np.array([_refine_starts(v) for v in vals])
    cols = np.repeat(np.arange(len(vals)), orders.shape[1])
    xs, vs, nit = _nelder_mead_max(f, pts[orders.ravel()], cols, los, his)
    step, results = float(np.max((his - los) / (grid_nodes - 1))), []
    for j, order in enumerate(orders):
        best = pts[order[0]].copy(), float(vals[j, order[0]])
        for x, v in zip(xs[cols == j], vs[cols == j]):  # the starts in turn
            if v > best[1]:
                best = x, float(v)
        results.append(MaximizeResult(*best, int(nit[cols == j].sum()), step))
    return results


def _refine_starts(vals: np.ndarray) -> np.ndarray:
    """Indices of the REFINE_STARTS largest values, as np.argsort(vals)[::-1]
    orders them, by partition when the REFINE_STARTS + 1 largest differ."""
    cut = max(len(vals) - REFINE_STARTS - 1, 0)
    top = np.argpartition(vals, cut)[cut:]
    top = top[np.argsort(vals[top])[::-1]]
    distinct = np.all(vals[top][:-1] > vals[top][1:])  # no tie and no NaN
    return (top if distinct else np.argsort(vals)[::-1])[:REFINE_STARTS]


def _nelder_mead_max(f, starts, cols, los, his):
    """Nelder-Mead (Nelder and Mead, 1965) on -f(clip(x))[:, cols[i]] from
    each start i in lockstep: each start takes the steps of scipy's
    non-adaptive ``minimize(method="Nelder-Mead")`` (rho, chi, psi, sigma =
    1, 2, 1/2, 1/2) at xatol 1e-11, fatol 1e-13 and maxiter 2000, and a call
    of f takes at most one point per running start. Returns, per start, the
    first clamped point of greatest value, that value and scipy's ``nit``."""
    s, n = starts.shape
    best_x, best_v = starts.copy(), np.full(s, -np.inf)

    def neg(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        xc = np.clip(x, los, his)
        v = np.asarray(f(xc), dtype=float)[np.arange(len(rows)), cols[rows]]
        up = v > best_v[rows]
        best_v[rows[up]], best_x[rows[up]] = v[up], xc[up]
        return -v

    def sort(x: np.ndarray, fx: np.ndarray):
        ind = np.argsort(fx, axis=1)
        return (np.take_along_axis(x, ind[..., None], axis=1),
                np.take_along_axis(fx, ind, axis=1))

    active = np.arange(s)
    sim = np.repeat(starts[:, None], n + 1, axis=1)
    sim[:, np.arange(n) + 1, np.arange(n)] = np.where(starts != 0,
                                                      1.05 * starts, 0.00025)
    fsim = np.stack([neg(active, sim[:, j]) for j in range(n + 1)], axis=1)
    sim, fsim = sort(*sort(sim, fsim))  # twice, as scipy: argsort is unstable
    nit = np.full(s, 2000)
    for it in range(1, 2000):
        done = (np.abs(sim[active, 1:] - sim[active, :1]).max(axis=(1, 2))
                <= 1e-11) & (np.abs(fsim[active, :1] - fsim[active, 1:])
                             .max(axis=1) <= 1e-13)
        nit[active[done]] = it
        active = active[~done]
        if not active.size:
            break
        sa, fa = sim[active], fsim[active]
        xbar, worst = np.add.reduce(sa[:, :-1], 1) / n, sa[:, -1]
        xr = 2 * xbar - worst
        fxr = neg(active, xr)
        expand = fxr < fa[:, 0]
        contract = ~expand & ~(fxr < fa[:, -2])
        outside = contract & (fxr < fa[:, -1])
        x2 = np.where(expand[:, None], 3 * xbar - 2 * worst,
                      np.where(outside[:, None], 1.5 * xbar - 0.5 * worst,
                               0.5 * xbar + 0.5 * worst))
        f2 = np.full(len(active), np.nan)
        f2[expand | contract] = neg(active[expand | contract],
                                    x2[expand | contract])
        take = np.where(expand, f2 < fxr, np.where(
            outside, f2 <= fxr, contract & (f2 < fa[:, -1])))
        shrink = contract & ~take
        sa[~shrink, -1] = np.where(take[:, None], x2, xr)[~shrink]
        fa[~shrink, -1] = np.where(take, f2, fxr)[~shrink]
        if shrink.any():
            rows = np.flatnonzero(shrink)
            for j in range(1, n + 1):
                sa[rows, j] = sa[rows, 0] + 0.5 * (sa[rows, j] - sa[rows, 0])
                fa[rows, j] = neg(active[rows], sa[rows, j])
        sim[active], fsim[active] = sort(sa, fa)
    return best_x, best_v, nit
