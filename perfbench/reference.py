"""Reference values that the benchmark checks gpoly's output against.

Everything here is computed from the formulas themselves, with numpy and
scipy special functions, and never by calling gpoly: a fault in gpoly's
quadrature, maximizers or closed forms cannot hide behind a reference that
shares the code.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import log_ndtr, ndtr

# Uniform grid for the 1-D integrals and scans. The integrands are smooth
# and decay like exp(-d y^2 / 2) at both ends, so the trapezoid rule on this
# grid is accurate far below 1e-9 relative for every d <= 200 (the peak has
# a width of about 1/sqrt(d) >= 0.07, i.e. over 20 grid steps).
HALF_WIDTH = 12.0
GRID = np.linspace(-HALF_WIDTH, HALF_WIDTH, 8001)
_STEP = GRID[1] - GRID[0]
_LOG_CDF = log_ndtr(GRID)
_LOG_SF = log_ndtr(-GRID)

RHO_MAX = 6.0
W_EDGE = 1e-9


# --- Monte Carlo targets of the verify suite ---------------------------------

def blaschke_target(d: int, det_cov: float) -> float:
    """E[vol^2] of a simplex on d+1 i.i.d. points: (d+1)/d! * det cov."""
    return (d + 1) / math.factorial(d) * det_cov


def gaussian_simplex_volume(d: int) -> float:
    """E vol of the simplex on d+1 standard Gaussian points in R^d."""
    return math.sqrt(d + 1) / (2.0 ** (d / 2) * math.gamma(d / 2 + 1))


def truncated_lower_bound(d: int) -> float:
    """sqrt(1 - 2/pi) sqrt(d) / (2^((d+5)/2) Gamma((d+1)/2))."""
    return (math.sqrt(1.0 - 2.0 / math.pi) * math.sqrt(d)
            / (2.0 ** ((d + 5) / 2) * math.gamma((d + 1) / 2)))


def dot_moments(d: int) -> tuple[float, float]:
    """E w^2 and E w^4 of the dot product of two uniform unit directions."""
    return 1.0 / d, 3.0 / (d * (d + 2))


def dot_density(w, d: int):
    """Density of that dot product: c (1 - w^2)^((d-3)/2) on [-1, 1]."""
    c = math.gamma(d / 2) / (math.sqrt(math.pi) * math.gamma((d - 1) / 2))
    return c * (1.0 - np.asarray(w, dtype=float) ** 2) ** ((d - 3) / 2)


def lp_value(p: float) -> float:
    """(integral of phi^p)^(1/p) = (2 pi)^(-1/2) (2 pi / p)^(1/(2p))."""
    return (2.0 * math.pi) ** -0.5 * (2.0 * math.pi / p) ** (1.0 / (2.0 * p))


def _phi(y: float) -> float:
    return math.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi)


def abs_moment(family: str) -> float:
    """E|X| for the log-concave families of the verify suite.

    The truncated-gaussian family is X = c - |Z| with c = E|Z| = sqrt(2/pi),
    so E|X| = 2 E(c - |Z|)^+ = 4 (c (Phi(c) - 1/2) - phi(0) + phi(c)).
    """
    c = math.sqrt(2.0 / math.pi)
    return {"uniform": 0.5, "gaussian": c, "laplace": 1.0,
            "truncated-gaussian": 4.0 * (c * (float(ndtr(c)) - 0.5)
                                         - _phi(0.0) + _phi(c))}[family]


# --- k-facet probabilities ---------------------------------------------------

def kfacet_probabilities(n: int, d: int) -> np.ndarray:
    """p_k, k = 0..n-d: probability that a fixed d-subset is a k-facet.

    p_k = f_k C(m, k) sqrt(d / 2 pi) * integral Phi^k (1 - Phi)^(m-k)
    exp(-d y^2 / 2) dy with m = n - d, f_k = 1 at the balanced layer
    2k = m and 2 elsewhere. Evaluated in log space on the trapezoid grid.
    """
    m = n - d
    k = np.arange(m + 1)[:, None]
    log_f = k * _LOG_CDF + (m - k) * _LOG_SF - 0.5 * d * GRID * GRID
    peak = log_f.max(axis=1)
    integral = np.exp(log_f - peak[:, None]).sum(axis=1) * _STEP
    log_comb = np.array([math.lgamma(m + 1) - math.lgamma(j + 1)
                         - math.lgamma(m - j + 1) for j in range(m + 1)])
    factor = np.where(2 * np.arange(m + 1) == m, 1.0, 2.0)
    return factor * np.exp(log_comb + peak + 0.5 * math.log(d / (2 * math.pi))
                           + np.log(integral))


# --- growth constants --------------------------------------------------------

def _exponents(alpha: float, r: float) -> tuple[float, float]:
    return r * (alpha - 1.0), (1.0 - r) * (alpha - 1.0)


def c_objective(y, alpha: float, r: float):
    """Phi(y)^(r(alpha-1)) (1 - Phi(y))^((1-r)(alpha-1)) phi(y)."""
    e1, e2 = _exponents(alpha, r)
    y = np.asarray(y, dtype=float)
    return np.exp(e1 * log_ndtr(y) + e2 * log_ndtr(-y) - 0.5 * y * y) \
        / math.sqrt(2.0 * math.pi)


def c_grid_max(alpha: float, r: float) -> float:
    """Largest value of c_objective on the grid; the true max is no lower."""
    e1, e2 = _exponents(alpha, r)
    return float(np.exp(e1 * _LOG_CDF + e2 * _LOG_SF - 0.5 * GRID * GRID)
                 .max() / math.sqrt(2.0 * math.pi))


def binary_entropy(r: float) -> float:
    if r in (0.0, 1.0):
        return 0.0
    return -r * math.log2(r) - (1.0 - r) * math.log2(1.0 - r)


def growth_base(alpha: float, r: float, c: float) -> float:
    """2^(alpha H(1/alpha) + (alpha-1) H(r)) sqrt(2 pi) c."""
    exponent = alpha * binary_entropy(1.0 / alpha) \
        + (alpha - 1.0) * binary_entropy(r)
    return 2.0 ** exponent * math.sqrt(2.0 * math.pi) * c


def _sign_term(t, sign: str):
    return ndtr(t) if sign == "-" else ndtr(-t)


def estranged_kernel(rho1, rho2, w, s1: str, s2: str):
    """exp(-(rho1^2 + rho2^2)/2) F1(t21) F2(t12) sqrt(1 - w^2).

    t21 = (rho2 - rho1 w)/sqrt(1 - w^2), t12 likewise; F is Phi for sign
    '-' and 1 - Phi for sign '+'.
    """
    rho1, rho2, w = (np.asarray(v, dtype=float) for v in (rho1, rho2, w))
    sq = np.sqrt(1.0 - w * w)
    return (np.exp(-0.5 * (rho1 * rho1 + rho2 * rho2))
            * _sign_term((rho2 - rho1 * w) / sq, s1)
            * _sign_term((rho1 - rho2 * w) / sq, s2) * sq)


def estranged_reduced_kernel(rho, w):
    """The (-, -) kernel on its diagonal rho1 = rho2 = rho."""
    rho, w = np.asarray(rho, dtype=float), np.asarray(w, dtype=float)
    sq = np.sqrt(1.0 - w * w)
    return np.exp(-rho * rho) * ndtr(rho * (1.0 - w) / sq) ** 2 * sq


def estranged_grid_max(s1: str, s2: str, nodes: int = 121) -> float:
    """Largest kernel value on a nodes^3 grid of the constant's box."""
    rho = np.linspace(0.0, RHO_MAX, nodes)
    r2, w = np.meshgrid(rho, np.linspace(-1.0 + W_EDGE, 1.0 - W_EDGE, nodes),
                        indexing="ij")
    return max(float(estranged_kernel(r1, r2, w, s1, s2).max()) for r1 in rho)


def estranged_reduced_grid_max(nodes: int = 801) -> float:
    rho, w = np.meshgrid(np.linspace(0.0, RHO_MAX, nodes),
                         np.linspace(-1.0 + W_EDGE, 1.0 - W_EDGE, nodes),
                         indexing="ij")
    return float(estranged_reduced_kernel(rho, w).max())
