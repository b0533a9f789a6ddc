"""Closed-form quantities for Gaussian random point sets.

Covers the exact per-subset k-facet probability (a 1-D quadrature after the
reduction to scalar Gaussians), the entropy-weighted exponential growth base
of expected k-facet counts, the variational constants governing simultaneous
facet pairs on disjoint vertex sets, and supporting densities and simplex
volume formulas. Everything is evaluated numerically in log space where
binomial factors could overflow.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, log_ndtr, ndtr

from .mathcore import (
    MaximizeResult,
    QuadratureError,
    integrate_1d,
    log_binomial,
    maximize_1d,
    maximize_box,
    maximize_boxes,
)

INTEGRATION_HALF_WIDTH = 12.0  # phi(12)^d underflows any contribution
RHO_MAX = 6.0                  # exp(-rho^2) caps the pair integrand below 2e-16
W_EDGE = 1e-9                  # keep sqrt(1 - w^2) away from its zero


@dataclass(frozen=True, eq=False)
class ConstantResult:
    """A variational constant: value, argmax coordinates, and diagnostics."""

    value: float
    argmax: np.ndarray
    context: dict
    diagnostics: MaximizeResult

    def as_record(self, name: str) -> dict:
        return {
            "name": name,
            "parameters": dict(self.context),
            "value": self.value,
            "argmax": [float(x) for x in np.atleast_1d(self.argmax)],
            "grid_resolution": self.diagnostics.grid_resolution,
        }


def binary_entropy(r: float) -> float:
    """H(r) = -r log2 r - (1-r) log2 (1-r), with H(0) = H(1) = 0."""
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"binary entropy needs r in [0, 1], got {r}")
    if r == 0.0 or r == 1.0:
        return 0.0
    return float(-r * math.log2(r) - (1.0 - r) * math.log2(1.0 - r))


def _check_kfacet_inputs(n: int, d: int, k: int) -> None:
    if d < 1 or n < d + 1:
        raise ValueError(f"need d >= 1 and n >= d + 1, got n={n}, d={d}")
    if not 0 <= k <= n - d:
        raise ValueError(f"need 0 <= k <= n - d, got k={k} with n-d={n - d}")


def kfacet_probability_exact(n: int, d: int, k: int) -> float:
    """Probability that a fixed d-subset of n Gaussian points is a k-facet.

    Equals m * C(n-d, k) * sqrt(d / 2 pi) * integral of
    Phi(y)^k (1 - Phi(y))^(n-d-k) exp(-d y^2 / 2), with m = 2 except at the
    balanced layer k = (n-d)/2, where each subset would otherwise be counted
    for both sides at once. A value outside [0, 1] by more than the scaled
    error estimate of the quadrature raises QuadratureError.
    """
    _check_kfacet_inputs(n, d, k)
    m = n - d
    factor = 1.0 if 2 * k == m else 2.0
    lc = log_binomial(m, k)

    def integrand(y: float) -> float:
        log_p, log_q = _log_phi_pair(y)
        return math.exp(k * log_p + (m - k) * log_q - 0.5 * d * y * y)

    quad = integrate_1d(integrand, -INTEGRATION_HALF_WIDTH,
                        INTEGRATION_HALF_WIDTH, rel_tol=1e-11)
    scale = factor * math.exp(lc) * math.sqrt(d / (2.0 * math.pi))
    p, err = scale * quad.value, scale * quad.abs_error_estimate
    if not -err <= p <= 1.0 + err:
        raise QuadratureError(f"k-facet probability {p} is outside [0, 1] "
                              f"by more than {err}", p, err, quad.evaluations)
    return min(max(p, 0.0), 1.0)


@functools.lru_cache(maxsize=4096)
def _log_phi_pair(y: float) -> tuple[float, float]:
    """(log Phi(y), log Phi(-y)) as Python floats, memoised: QUADPACK bisects
    [-12, 12] at midpoints, so all k-facet integrals share a few hundred y."""
    return float(log_ndtr(y)), float(log_ndtr(-y))


def kfacet_log_expectation_exact(n: int, d: int, k: int) -> float:
    """Natural log of the expected k-facet count (safe when C(n, d) is huge)."""
    return kfacet_log_expectation_from_probability(
        n, d, kfacet_probability_exact(n, d, k))


def kfacet_log_expectation_from_probability(n: int, d: int, p: float) -> float:
    """log(C(n, d) p): the log expected count of subsets that are k-facets
    with probability p each; -inf when p = 0."""
    if p == 0.0:
        return -math.inf
    return log_binomial(n, d) + math.log(p)


def kfacet_expectation_exact(n: int, d: int, k: int) -> float:
    """Expected number of k-facets: C(n, d) times the per-subset probability."""
    return math.exp(kfacet_log_expectation_exact(n, d, k))


def _check_alpha_r(alpha: float, r: float) -> None:
    if not alpha > 1.0:  # NaN too
        raise ValueError(f"need alpha > 1, got {alpha}")
    if alpha == math.inf:
        raise ValueError(f"need a finite alpha, got {alpha}")
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"need r in [0, 1], got {r}")


def c_alpha_r(alpha: float, r: float) -> ConstantResult:
    """Maximum over y of Phi(y)^e1 (1 - Phi(y))^e2 phi(y).

    The exponents e1 = r (alpha - 1), e2 = (1 - r)(alpha - 1) are the
    scaling under which k-facet counts at k ~ r (n - d) grow like value^d.
    Raises ValueError, naming alpha, where the maximum underflows to 0 or
    is not finite.
    """
    _check_alpha_r(alpha, r)
    e1, e2 = r * (alpha - 1.0), (1.0 - r) * (alpha - 1.0)

    def objective(y: np.ndarray) -> np.ndarray:
        la = e1 * log_ndtr(y) if e1 != 0.0 else 0.0
        lb = e2 * log_ndtr(-y) if e2 != 0.0 else 0.0
        # math.exp: np.exp can differ from it in the last bit
        return np.array([math.exp(v) for v in (la + lb - 0.5 * y * y).tolist()]
                        ) / math.sqrt(2.0 * math.pi)

    with np.errstate(over="ignore"):  # an exponent of -inf: checked below
        res = maximize_1d(objective, -INTEGRATION_HALF_WIDTH,
                          INTEGRATION_HALF_WIDTH)
    if not 0.0 < res.value < math.inf:
        raise ValueError(f"c_alpha_r is {res.value} at alpha {alpha}, not "
                         f"a positive finite number")
    return ConstantResult(value=res.value, argmax=res.argmax,
                          context={"alpha": alpha, "r": r},
                          diagnostics=res)


def growth_base_kfacet(alpha: float, r: float) -> float:
    """Base of the d-exponential growth of expected k-facet counts.

    2^(alpha H(1/alpha)) * 2^((alpha-1) H(r)) * sqrt(2 pi) * c_alpha_r.
    """
    factor = growth_factor(alpha, r)  # first: no maximizer on an overflow
    return factor * c_alpha_r(alpha, r).value


def growth_factor(alpha: float, r: float) -> float:
    """2^(alpha H(1/alpha) + (alpha-1) H(r)) sqrt(2 pi), the growth base per
    unit of c_alpha_r(alpha, r).value. Raises ValueError, naming alpha,
    where it overflows float64."""
    _check_alpha_r(alpha, r)
    exponent = alpha * binary_entropy(1.0 / alpha) \
        + (alpha - 1.0) * binary_entropy(r)
    try:
        return 2.0 ** exponent * math.sqrt(2.0 * math.pi)
    except OverflowError:
        raise ValueError(f"the growth base overflows float64 at alpha "
                         f"{alpha}, r {r}") from None


def _sign_factor(t, sign: str):
    if sign not in ("-", "+"):
        raise ValueError(f"sign must be '-' or '+', got {sign!r}")
    return ndtr(t if sign == "-" else -t)  # '+': 1 - Phi(t), stably


def _estranged_kernels(rho1, rho2, w, signs):
    """Each sign pair's kernel exp(-(rho1^2 + rho2^2)/2) F1(t21) F2(t12)
    sqrt(1 - w^2) on a last axis, where tij is the signed distance of
    hyperplane i's boundary inside hyperplane j and each F is Phi (sign '-')
    or 1 - Phi (sign '+'). The sign-free terms are computed once."""
    sq = np.sqrt(1.0 - w * w)
    t21 = (rho2 - rho1 * w) / sq
    t12 = (rho1 - rho2 * w) / sq
    e = np.exp(-0.5 * (rho1 * rho1 + rho2 * rho2))
    f21 = {s1: _sign_factor(t21, s1) for s1 in {s1 for s1, _ in signs}}
    f12 = {s2: _sign_factor(t12, s2) for s2 in {s2 for _, s2 in signs}}
    return np.stack([e * f21[s1] * f12[s2] * sq for s1, s2 in signs], -1)


def estranged_constant(s1: str, s2: str) -> ConstantResult:
    """Supremum of the sign-term kernel over rho1, rho2 >= 0 and |w| < 1."""
    return estranged_constants([(s1, s2)])[0]


def estranged_constants(signs=("--", "+-", "-+", "++")) -> list[ConstantResult]:
    """The constant of each sign pair, from one grid scan and one lockstep."""
    results = maximize_boxes(
        lambda p: _estranged_kernels(p[:, 0], p[:, 1], p[:, 2], signs),
        [(0.0, RHO_MAX), (0.0, RHO_MAX), (-1.0 + W_EDGE, 1.0 - W_EDGE)])
    return [ConstantResult(value=res.value, argmax=res.argmax,
                           context={"signs": s1 + s2}, diagnostics=res)
            for (s1, s2), res in zip(signs, results)]


def estranged_constant_reduced() -> ConstantResult:
    """One-rho form of the dominant (-, -) constant.

    The (-, -) kernel is logconcave and symmetric in (rho1, rho2) for fixed
    w, so its supremum is attained on the diagonal rho1 = rho2 = rho:
    exp(-rho^2) Phi(rho (1 - w) / sqrt(1 - w^2))^2 sqrt(1 - w^2).
    """
    def batch(pts: np.ndarray) -> np.ndarray:
        rho, w = pts[:, 0], pts[:, 1]
        sq = np.sqrt(1.0 - w * w)
        return np.exp(-rho * rho) * ndtr(rho * (1.0 - w) / sq) ** 2 * sq

    res = maximize_box(batch, [(0.0, RHO_MAX), (-1.0 + W_EDGE, 1.0 - W_EDGE)])
    return ConstantResult(value=res.value, argmax=res.argmax,
                          context={"form": "reduced"}, diagnostics=res)


def dot_density(w, d: int):
    """Density of the dot product of two independent uniform directions.

    Gamma(d/2) / (sqrt(pi) Gamma((d-1)/2)) * (1 - w^2)^((d-3)/2) on [-1, 1].
    For d = 2 the density diverges at the endpoints (integrably).
    """
    if d < 2:
        raise ValueError("dot-product density needs d >= 2")
    if isinstance(w, float):  # QUADPACK's scalar calls skip numpy
        if abs(w) > 1.0:
            raise ValueError("dot-product density has support [-1, 1]")
        base = 1.0 - w * w  # 0.0 ** -0.5 raises where numpy gives inf
        return math.inf if base == 0.0 and d == 2 else \
            _dot_density_constant(d) * base ** ((d - 3) / 2.0)
    w = np.asarray(w, dtype=float)
    if np.any(np.abs(w) > 1.0):
        raise ValueError("dot-product density has support [-1, 1]")
    with np.errstate(divide="ignore"):
        out = _dot_density_constant(d) * (1.0 - w * w) ** ((d - 3) / 2.0)
    return float(out) if out.ndim == 0 else out


@functools.cache
def _dot_density_constant(d: int) -> float:
    """Gamma(d/2) / (sqrt(pi) Gamma((d-1)/2)), computed once per d."""
    return math.exp(gammaln(d / 2.0) - gammaln((d - 1) / 2.0)
                    - 0.5 * math.log(math.pi))


def gaussian_simplex_expected_volume(d: int) -> float:
    """Expected volume of the simplex on d+1 i.i.d. Gaussian points in R^d:
    sqrt(d+1) / (2^(d/2) Gamma(d/2 + 1))."""
    if d < 1:
        raise ValueError("need d >= 1")
    return math.exp(0.5 * math.log(d + 1.0) - 0.5 * d * math.log(2.0)
                    - gammaln(d / 2.0 + 1.0))


def truncated_simplex_lower_bound(d: int) -> float:
    """Lower bound on the expected volume of a halfspace-truncated simplex.

    For d standard Gaussian points in R^(d-1) conditioned on a halfspace
    containing the origin: sqrt(1 - 2/pi) sqrt(d) / (2^((d+5)/2)
    Gamma((d+1)/2)), independent of the halfspace.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    return math.exp(0.5 * math.log1p(-2.0 / math.pi) + 0.5 * math.log(d)
                    - 0.5 * (d + 5) * math.log(2.0) - gammaln((d + 1) / 2.0))
