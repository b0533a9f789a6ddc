"""Numeric substrate: the degeneracy rule, the signed-volume kernel,
full-dimensional simplex volumes, Gaussian special functions, adaptive 1-D
quadrature, and derivative-free maximization over boxes.

Everything here is a pure function of its inputs. One rule, with one
tolerance, decides every degeneracy in the package (``degenerate``), and
one kernel computes every determinant (``signed_volumes``): simplex
volumes, the geometry's side counts and general-position audits take their
determinants from it, and apply the rule by SVD only to the matrices its
screen does not clear. Maximization never assumes unimodality: a dense grid
scan is always followed by local refinement, and the reported value is the
best point actually evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import integrate, linalg, optimize, special

DEGENERACY_RTOL = 1e-9
_U = 2.0 ** -53  # unit roundoff of float64
REFINE_STARTS = 8  # grid cells maximize_box refines from


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
    d + 1 points. ``scale`` broadcasts against the block.

    g = |det| ((d-1) / F^2)^((d-1)/2), F = ||E||_F, is at most sigma_min
    (Guggenheimer, Edelman and Johnson, 1995). LU with partial pivoting
    gives det B with ||B - E||_F <= kappa F, kappa = 1.01 (u + d^2 gamma_d
    2^(d-1)): |B - E| <= gamma_d |L||U| (Higham 2002, Thm 9.3) with growth
    <= 2^(d-1), u for the rounding of E, 1.01 for the rest. If 4 d kappa <=
    1, sigma_min(B) > g / 2, so g > 4 kappa F is sure: no matrix within
    kappa F of B is singular, and sigma_min(E) > g / 4. Where that fails,
    scipy's LU, B = P L U, has row i of B - E at most w_i = gamma_d
    ||(P|L||U|)_i|| + u ||e_i||, so |det B - det E| <= prod ||e_i||
    expm1(sum w_i / ||e_i||) (Hadamard, row by row): sure if |det B|
    exceeds 1.01 times that with the sign of ``dets``. Clear is sure by the
    first test and g > 8 DEGENERACY_RTOL max(d F, sqrt(d) scale): the edges
    of d of the points, from any one of them, are M E with sigma_min(M) >=
    1 / sqrt(d) and ||M||_2 <= sqrt(d), which leaves a factor 2 for their
    rounding and the SVD's.
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
        rows = np.flatnonzero(~sure & (g > 0) & np.isfinite(g))
        if rows.size:  # the second test, on each matrix's own LU factors
            mats = edges.reshape(-1, d, d)[rows]
            perm, low, up = linalg.lu(mats)
            norms = np.linalg.norm(mats, axis=-1)
            w = gamma * np.linalg.norm(perm @ (np.abs(low) @ np.abs(up)),
                                       axis=-1) + _U * norms
            det_b = np.linalg.det(perm) * np.prod(
                np.diagonal(up, axis1=-2, axis2=-1), axis=-1)
            np.put(sure, rows, (np.abs(det_b) > 1.01 * np.prod(norms, axis=-1)
                                * np.expm1((w / norms).sum(axis=-1)))
                   & (np.sign(det_b) == np.sign(dets.ravel()[rows])))
    return dets, sure, clear


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


def std_normal_cdf(y):
    """Phi(y), evaluated through the complementary error function.

    Stable in both tails; needed because downstream integrands raise
    (1 - Phi) to powers of order d.
    """
    return special.ndtr(y)


def std_normal_log_cdf(y):
    """log Phi(y) without underflow in the left tail."""
    return special.log_ndtr(y)


def log_gamma(x) -> float:
    """ln Gamma(x) for x > 0."""
    if np.any(np.asarray(x) <= 0):
        raise ValueError("log_gamma requires x > 0")
    return special.gammaln(x)


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


def maximize_1d(f: Callable[[float], float], a: float, b: float,
                grid_nodes: int = 2049) -> MaximizeResult:
    """Maximize f on [a, b]: dense grid scan then golden-section refinement.

    grid_nodes of the form 2^m + 1 keeps successive doublings nested, so the
    reported value is monotone under grid refinement.
    """
    if grid_nodes < 3:
        raise ValueError("grid_nodes must be at least 3")
    xs = np.linspace(a, b, grid_nodes)
    fs = np.array([f(x) for x in xs], dtype=float)
    i = int(np.argmax(fs))
    best_x, best_f = float(xs[i]), float(fs[i])
    lo = float(xs[max(i - 1, 0)])
    hi = float(xs[min(i + 1, grid_nodes - 1)])
    gx, gf, iters = _golden_section_max(f, lo, hi, xtol=1e-12 * (b - a))
    if gf > best_f:
        best_x, best_f = float(gx), float(gf)
    return MaximizeResult(argmax=np.array([best_x]), value=best_f,
                          refinements=iters,
                          grid_resolution=(b - a) / (grid_nodes - 1))


def maximize_box(f: Callable[[np.ndarray], float],
                 box: Sequence[tuple[float, float]],
                 grid_nodes: int = 65) -> MaximizeResult:
    """Maximize f over a 1- to 3-dimensional box.

    f maps an (N, dim) array of points to N values. Full grid scan
    (grid_nodes per axis, one call of f) followed by Nelder-Mead refinement
    started from the best REFINE_STARTS grid cells. Iterates are clamped to
    the box, so the reported argmax always lies inside it.
    """
    box = [(float(lo), float(hi)) for lo, hi in box]
    dim = len(box)
    if not 1 <= dim <= 3:
        raise ValueError("box must have 1 to 3 dimensions")
    if any(hi <= lo for lo, hi in box):
        raise ValueError("box intervals must have positive length")
    los = np.array([lo for lo, _ in box])
    his = np.array([hi for _, hi in box])

    axes = [np.linspace(lo, hi, grid_nodes) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    vals = np.asarray(f(pts), dtype=float)

    order = np.argsort(vals)[::-1][:REFINE_STARTS]
    best_i = int(order[0])
    best_x, best_f = pts[best_i].copy(), float(vals[best_i])

    def neg_clamped(x: np.ndarray) -> float:
        nonlocal best_x, best_f
        xc = np.clip(x, los, his)
        v = float(f(xc[None, :])[0])
        if v > best_f:
            best_x, best_f = xc.copy(), v
        return -v

    refinements = 0
    for start in order:
        res = optimize.minimize(neg_clamped, pts[start], method="Nelder-Mead",
                                options={"xatol": 1e-11, "fatol": 1e-13,
                                         "maxiter": 2000})
        refinements += int(res.nit)
    return MaximizeResult(argmax=best_x, value=best_f,
                          refinements=refinements,
                          grid_resolution=float(np.max((his - los)
                                                       / (grid_nodes - 1))))
