"""Monte Carlo harness and the verification suite.

One chunk routine runs every experiment in three steps, and every experiment
is a draw plus a block kernel. Draws are per trial: trial i fills its row of
a preallocated block from the stream keyed by (master_seed, i), so any trial
can be reproduced in isolation; one stream rewinds through a sub-block in
one ``RngStream.fill_rows`` call. Kernels are per block: the rows of
SUB_BLOCK consecutive trials are mapped by one vectorised call to one value
(or one vector of values) per trial. The enumeration kernels pass the whole
block of Gaussian point sets to the geometry, and a degenerate point set
fails as its trial. Statistics are per chunk: each CHUNK of trials is
reduced to (count, mean, M2) with numpy, and the chunk statistics are merged
by a pairwise tree in trial-index order (Chan, Golub and LeVeque). Runs are
single-threaded, and their results depend only on the seed and the trial
count. The verify_* operations each encode one literal inequality or
|z| <= 3 agreement test between simulation and a closed form.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from . import geometry, theory
from .geometry import ResourceCapError
from .mathcore import integrate_1d, simplex_volume
from .sampling import RngStream, _truncated_coords

CHUNK = 4096  # trials reduced to one (count, mean, M2) before the merge
SUB_BLOCK = 512  # rows stacked per kernel call
ESTRANGED_D_CAP = 7  # largest d of estranged_expectation_mc
PAIR_D_CAP = 10  # largest d of pair_facet_probability_mc
Z_THRESHOLD = 3.0


class TrialError(RuntimeError):
    """A Monte Carlo trial raised; carries the failing trial index."""

    def __init__(self, trial_index: int, cause: BaseException):
        super().__init__(f"trial {trial_index} failed: {cause}")
        self.trial_index = trial_index


@dataclass(frozen=True)
class MCEstimate:
    """Running mean/variance summary of one Monte Carlo quantity."""

    mean: float
    variance: float
    trials: int
    std_error: float
    ci95: tuple[float, float]

    @classmethod
    def from_moments(cls, count: int, mean: float, m2: float) -> "MCEstimate":
        """From the count, the mean and the summed squared deviations."""
        variance = m2 / (count - 1)
        std_error = math.sqrt(variance / count)
        return cls(mean=mean, variance=variance, trials=count,
                   std_error=std_error,
                   ci95=(mean - 1.96 * std_error, mean + 1.96 * std_error))

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one theory-versus-simulation check."""

    name: str
    theory: float
    estimate: MCEstimate | None
    z: float | None
    threshold: float
    passed: bool
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


Kernel = Callable[[np.ndarray], np.ndarray]


def _run_chunk(draw, kernel, width: int, row_shape, master_seed: int,
               lo: int, hi: int):
    """(count, mean, M2) of trials lo..hi-1, each of shape (width,).

    Trial i fills its row of a preallocated block from stream(master_seed,
    i); every SUB_BLOCK rows are filled by one ``fill_rows`` call and mapped
    by one kernel call. A geometry error names the row of its point set in
    the block, which makes it a TrialError of that trial.
    """
    s = RngStream(master_seed, lo)
    values = np.empty((hi - lo, width))
    for a in range(lo, hi, SUB_BLOCK):
        b = min(a + SUB_BLOCK, hi)
        rows = np.empty((b - a, *row_shape))
        try:
            s.fill_rows(a, rows, draw)
        except Exception as exc:  # the stream is still keyed by the trial
            raise TrialError(s.stream_id, exc) from exc
        try:
            out = np.asarray(kernel(rows), dtype=float)
        except geometry.DegeneracyError as err:
            raise TrialError(a + err.row, err) from err
        if out.shape != (b - a, width):
            raise ValueError(f"kernel returned shape {out.shape} for "
                             f"{b - a} trials of width {width}")
        values[a - lo:b - lo] = out.reshape(b - a, width)
    # One contiguous row per component, so each reduces by pairwise sums.
    values = np.ascontiguousarray(values.T)
    mean = values.sum(axis=1) / (hi - lo)
    m2 = np.square(values - mean[:, None]).sum(axis=1)
    return hi - lo, mean, m2


def _merge_stats(a, b):
    na, ma, m2a = a
    nb, mb, m2b = b
    n = na + nb
    delta = mb - ma
    mean = ma + delta * (nb / n)
    m2 = m2a + m2b + delta * delta * (na * nb / n)
    return n, mean, m2


def _tree_merge(stats):
    """Pairwise merge in index order; the tree shape depends only on the
    chunk count."""
    while len(stats) > 1:
        merged = [_merge_stats(stats[i], stats[i + 1])
                  for i in range(0, len(stats) - 1, 2)]
        if len(stats) % 2 == 1:
            merged.append(stats[-1])
        stats = merged
    return stats[0]


def _run(draw, kernel, width: int, row_shape, trials: int,
         master_seed: int):
    if trials < 2:
        raise ValueError("need at least 2 trials")
    stats = [_run_chunk(draw, kernel, width, row_shape, master_seed,
                        lo, min(lo + CHUNK, trials))
             for lo in range(0, trials, CHUNK)]
    count, mean, m2 = _tree_merge(stats)
    return [MCEstimate.from_moments(count, float(mean[j]), float(m2[j]))
            for j in range(width)]


def mc_run(draw: Callable[[RngStream, np.ndarray], None], trials: int,
           master_seed: int, kernel: Kernel, *, row_shape: tuple[int, ...]
           ) -> MCEstimate:
    """Estimate the mean of one quantity over independent streams.

    Trial i fills its row, an array of shape ``row_shape``, in place with
    ``draw(s, row)``, where s is stream(master_seed, i). The kernel maps a
    block of rows of shape (T, *row_shape) to T values.
    """
    return _run(draw, lambda rows: np.reshape(kernel(rows), (len(rows), 1)),
                1, row_shape, trials, master_seed)[0]


def mc_run_vector(draw: Callable[[RngStream, np.ndarray], None], width: int,
                  trials: int, master_seed: int, kernel: Kernel, *,
                  row_shape: tuple[int, ...]) -> list[MCEstimate]:
    """Vector-valued twin of mc_run: the kernel maps (T, *row_shape) to
    (T, width); returns one estimate per component."""
    return _run(draw, kernel, width, row_shape, trials, master_seed)


def _fill_normal(s: RngStream, row: np.ndarray) -> None:
    s.standard_normal(out=row)


def kfacet_expectation_mc(n: int, d: int, k: int, trials: int,
                          master_seed: int) -> MCEstimate:
    """Empirical E e_k: column k of the profile estimate."""
    theory._check_kfacet_inputs(n, d, k)
    return kfacet_profile_expectation_mc(n, d, trials, master_seed)[k]


def kfacet_profile_expectation_mc(n: int, d: int, trials: int,
                                  master_seed: int) -> list[MCEstimate]:
    """Empirical expectation of the whole profile vector (e_0, ..., e_{n-d})."""
    theory._check_kfacet_inputs(n, d, 0)
    return _profile_mc(n, geometry.subset_array(n, d), trials, master_seed)


def _profile_mc(n: int, subsets: np.ndarray, trials: int,
                master_seed: int) -> list[MCEstimate]:
    """Mean k-facet counts over ``subsets`` of n Gaussian points, k = 0, ...,
    n - d. The list is checked, against the subset cap too, before any draw."""
    d = subsets.shape[1]
    subsets = geometry._check_subsets(n, d, subsets)
    return mc_run_vector(_fill_normal, n - d + 1, trials, master_seed,
                         lambda x: geometry.profile_counts(x, subsets),
                         row_shape=(n, d))


def fixed_subset_kfacet_probability_mc(n: int, d: int, k: int, trials: int,
                                       master_seed: int) -> MCEstimate:
    """Probability that the first d of n Gaussian points form a k-facet.

    The k-facet count over the single subset (0, ..., d-1) is 1 exactly
    when that subset is a k-facet. One subset is counted per trial, so the
    subset cap bounds only its n - d outside points.
    """
    theory._check_kfacet_inputs(n, d, k)
    return _profile_mc(n, geometry.subset_array(d, d), trials,
                       master_seed)[k]


def reduced_kfacet_probability_mc(n: int, d: int, k: int, trials: int,
                                  master_seed: int) -> MCEstimate:
    """Scalar surrogate for the fixed-subset probability: column k of the
    reduced profile estimate."""
    theory._check_kfacet_inputs(n, d, k)
    return reduced_kfacet_profile_probability_mc(n, d, trials,
                                                 master_seed)[k]


def reduced_kfacet_profile_probability_mc(n: int, d: int, trials: int,
                                          master_seed: int
                                          ) -> list[MCEstimate]:
    """Scalar surrogate for every k at once, k = 0, ..., n-d.

    Draw Y ~ N(0, 1/d) and Y_1..Y_{n-d} ~ N(0, 1); trial k succeeds when
    the number of Y_i above Y is k or (n-d) - k.
    """
    theory._check_kfacet_inputs(n, d, 0)
    return _reduced_profiles_mc(n - d, [d], trials, master_seed)[d]


def _reduced_profiles_mc(m: int, ds, trials: int,
                         master_seed: int) -> dict[int, list[MCEstimate]]:
    """The reduced profile at n = m + d of each d in ``ds``, from one run on
    shared rows: Y / sqrt(d), Y ~ N(0, 1), is the N(0, 1/d) draw of each."""
    inv_sqrt_d = np.array([1.0 / math.sqrt(d) for d in ds])[:, None]
    ks = np.arange(m + 1)

    def kernel(z: np.ndarray) -> np.ndarray:
        above = (z[:, None, 1:] > z[:, None, :1] * inv_sqrt_d).sum(axis=2)
        hit = (above[..., None] == ks) | (above[..., None] == m - ks)
        return hit.reshape(len(z), -1)

    ests = mc_run_vector(_fill_normal, len(ds) * (m + 1), trials,
                         master_seed, kernel, row_shape=(m + 1,))
    return {d: ests[j * (m + 1):(j + 1) * (m + 1)] for j, d in enumerate(ds)}


def estranged_expectation_mc(d: int, trials: int,
                             master_seed: int) -> MCEstimate:
    """Expected number of estranged facet pairs of 2d Gaussian points."""
    if d < 1:
        raise ValueError("need d >= 1")
    if d > ESTRANGED_D_CAP:
        raise ResourceCapError(
            f"d = {d} exceeds the estranged cap {ESTRANGED_D_CAP}")
    n = 2 * d
    subsets = geometry.subset_array(n, d)
    i, j = geometry.disjoint_pairs(subsets)

    def pairs(coords: np.ndarray) -> np.ndarray:
        mask = geometry.facet_mask(coords, subsets)
        return (mask[:, i] & mask[:, j]).sum(axis=1)

    return mc_run(_fill_normal, trials, master_seed, pairs,
                  row_shape=(n, d))


def pair_facet_probability_mc(d: int, trials: int,
                              master_seed: int) -> MCEstimate:
    """Probability that both halves of a fixed partition of 2d points are facets."""
    if d < 1:
        raise ValueError("need d >= 1")
    if d > PAIR_D_CAP:
        raise ResourceCapError(f"d = {d} exceeds the pair cap {PAIR_D_CAP}")
    n = 2 * d
    halves = np.array([list(range(d)), list(range(d, n))], dtype=np.intp)
    return mc_run(_fill_normal, trials, master_seed,
                  lambda x: geometry.facet_mask(x, halves).all(axis=1),
                  row_shape=(n, d))


def _z(x: float, mu: float, se: float) -> float:
    """(x - mu) / se; with se = 0, 0 where x and mu agree and inf otherwise."""
    return (x - mu) / se if se > 0 else (0.0 if x == mu else math.inf)


def _report(name: str, theory_value: float, est: MCEstimate | None, zs,
            details: dict, *, passed: bool | None = None,
            threshold: float = Z_THRESHOLD) -> VerificationReport:
    """The verdict rule: z is the first z of largest |z| (None without one),
    and the check passes when every |z| <= threshold, unless ``passed``
    says otherwise."""
    if passed is None:
        passed = all(abs(z) <= threshold for z in zs)
    return VerificationReport(name=name, theory=theory_value, estimate=est,
                              z=max(zs, key=abs, default=None),
                              threshold=threshold, passed=passed,
                              details=details)


def verify_blaschke(d: int, trials: int, master_seed: int,
                    distribution: str = "gaussian") -> VerificationReport:
    """Second-moment identity: det cov = d!/(d+1) E[vol^2] of a simplex.

    Checked as E[vol^2] against (d+1)/d! * det cov with det cov known in
    closed form (1 for standard Gaussian, 12^-d for the unit cube).
    """
    return _blaschke(d, trials, master_seed, distribution)[0]


def verify_simplex_volume(d: int, trials: int,
                          master_seed: int) -> VerificationReport:
    """Mean volume of a Gaussian simplex against its closed form."""
    return verify_gaussian_simplex(d, trials, master_seed)[1]


def verify_gaussian_simplex(d: int, trials: int, master_seed: int
                            ) -> tuple[VerificationReport, VerificationReport]:
    """The Gaussian reports of verify_blaschke and verify_simplex_volume,
    from one run on the same simplices."""
    blaschke, vol = _blaschke(d, trials, master_seed, "gaussian")
    target = theory.gaussian_simplex_expected_volume(d)
    return blaschke, _report(f"simplex_volume[d={d}]", target, vol,
                             [_z(vol.mean, target, vol.std_error)], {"d": d})


def _blaschke(d: int, trials: int, master_seed: int, distribution: str
              ) -> tuple[VerificationReport, MCEstimate]:
    """The Blaschke report and the mean volume, from one run."""
    if distribution == "gaussian":
        det_cov, draw = 1.0, _fill_normal
    elif distribution == "uniform-cube":
        det_cov, draw = 12.0 ** (-d), lambda s, row: s.uniform(out=row)
    else:
        raise ValueError(f"unknown distribution {distribution!r}")

    def kernel(points: np.ndarray) -> np.ndarray:
        vol = simplex_volume(points)
        return np.stack((vol ** 2, vol), axis=1)

    sq, vol = mc_run_vector(draw, 2, trials, master_seed, kernel,
                            row_shape=(d + 1, d))
    target = (d + 1) / math.factorial(d) * det_cov
    return _report(f"blaschke[{distribution},d={d}]", target, sq,
                   [_z(sq.mean, target, sq.std_error)],
                   {"det_cov": det_cov, "d": d,
                    "distribution": distribution}), vol


def verify_truncated_bound(d: int, t: float, trials: int,
                           master_seed: int) -> VerificationReport:
    """Halfspace-truncated simplex volume respects its lower bound.

    Passes when the empirical mean plus 3 standard errors is at least the
    bound (the bound is a one-sided guarantee, not an equality).

    One draw fills a trial's w rows, and the kernel keeps the first d with
    x_1 <= t; a buffer with fewer is topped up by ``_truncated_coords``.
    """
    bound = theory.truncated_simplex_lower_bound(d)  # refuses d < 2
    if not t >= 0:  # NaN too: no row would pass the rejection test
        raise ValueError(f"need t >= 0, got {t}")
    phi = 0.5 * math.erfc(-t / math.sqrt(2.0))  # 1 at t = inf
    w = d + math.ceil(d * (1.0 - phi) / phi + 4.0 * math.sqrt(d) + 4.0)

    def draw(s: RngStream, row: np.ndarray) -> None:
        s.standard_normal(out=row)
        keep = row[:, 0] <= t
        if (kept := np.count_nonzero(keep)) < d:
            row[:kept] = row[keep]
            _truncated_coords(s, row[kept:d], t)

    def kernel(rows: np.ndarray) -> np.ndarray:
        first = np.argsort(rows[..., 0] > t, kind="stable")[:, :d, None]
        return simplex_volume(np.take_along_axis(rows, first, axis=1))

    est = mc_run(draw, trials, master_seed, kernel, row_shape=(w, d - 1))
    return _report(f"truncated_bound[d={d},t={t}]", bound, est,
                   [_z(est.mean, bound, est.std_error)],
                   {"d": d, "t": t, "one_sided": True},
                   passed=est.mean + Z_THRESHOLD * est.std_error >= bound)


LOGCONCAVE_FAMILIES = ("uniform", "gaussian", "truncated-gaussian", "laplace")
_HALF_NORMAL_MEAN = math.sqrt(2.0 / math.pi)


def verify_logconcave_moment(family: str, trials: int,
                             master_seed: int) -> VerificationReport:
    """Mean-zero logconcave draws satisfy E|X| >= (1/8) sqrt(E X^2).

    The empirical ratio is checked with a 3-standard-error safety margin on
    both moments (shrinking E|X|, inflating E X^2).
    """
    if family not in LOGCONCAVE_FAMILIES:
        raise ValueError(f"family must be one of {LOGCONCAVE_FAMILIES}")

    # one draw per trial, which the block kernel shifts onto the family
    draw, shift = {
        "uniform": (lambda s, row: s.uniform(out=row), lambda u: 2 * u - 1),
        "gaussian": (_fill_normal, None),
        "truncated-gaussian": (_fill_normal,
                               lambda x: -np.abs(x) + _HALF_NORMAL_MEAN),
        "laplace": (lambda s, row: row.fill(s.generator.laplace()), None),
    }[family]

    def kernel(x: np.ndarray) -> np.ndarray:
        x = x if shift is None else shift(x)
        return np.concatenate((np.abs(x), x * x), axis=1)

    abs_est, sq_est = mc_run_vector(draw, 2, trials, master_seed, kernel,
                                    row_shape=(1,))
    low_abs = abs_est.mean - Z_THRESHOLD * abs_est.std_error
    high_sq = sq_est.mean + Z_THRESHOLD * sq_est.std_error
    ratio = abs_est.mean / math.sqrt(sq_est.mean)
    conservative = low_abs / math.sqrt(high_sq)
    return _report(f"logconcave_moment[{family}]", 0.125, abs_est, [],
                   {"family": family, "ratio": ratio,
                    "conservative_ratio": conservative,
                    "mean_abs": abs_est.mean, "mean_sq": sq_est.mean},
                   passed=conservative >= 0.125)


def verify_dot_density(d: int, trials: int,
                       master_seed: int) -> VerificationReport:
    """Empirical second and fourth moments of the direction dot product
    against quadrature of its closed-form density."""
    if d < 2:
        raise ValueError("need d >= 2")
    m2 = integrate_1d(lambda w: w * w * theory.dot_density(w, d),
                      -1.0, 1.0, rel_tol=1e-11).value
    m4 = integrate_1d(lambda w: w ** 4 * theory.dot_density(w, d),
                      -1.0, 1.0, rel_tol=1e-11).value

    def kernel(v: np.ndarray) -> np.ndarray:
        v1, v2 = v[:, 0], v[:, 1]
        norms = np.linalg.norm(v1, axis=1) * np.linalg.norm(v2, axis=1)
        w = np.einsum("ij,ij->i", v1, v2) / norms
        return np.stack((w * w, w ** 4), axis=1)

    est2, est4 = mc_run_vector(_fill_normal, 2, trials, master_seed, kernel,
                               row_shape=(2, d))
    z2 = _z(est2.mean, m2, est2.std_error)
    z4 = _z(est4.mean, m4, est4.std_error)
    return _report(f"dot_density[d={d}]", m2, est2, [z2, z4],
                   {"d": d, "moment2_theory": m2, "moment4_theory": m4,
                    "moment4_estimate": est4.as_dict(), "z2": z2, "z4": z4})


def verify_lp_limit(p_values=(10, 100, 1000)) -> VerificationReport:
    """(integral of phi^p)^(1/p) increases toward the sup of phi.

    Quadrature only (no sampling); passes when the sequence is increasing
    and the largest p lands within 0.01 of (2 pi)^(-1/2). The sup is
    factored out before integrating, since phi^p itself underflows float64
    for p of a few hundred.
    """
    p_values = sorted(p_values)
    if not p_values or not all(0 < p < math.inf for p in p_values):
        raise ValueError(f"need finite p > 0, got {p_values}")
    limit = 1.0 / math.sqrt(2.0 * math.pi)
    values = []
    for p in p_values:
        quad = integrate_1d(lambda y: math.exp(-0.5 * p * y * y),
                            -theory.INTEGRATION_HALF_WIDTH,
                            theory.INTEGRATION_HALF_WIDTH, rel_tol=1e-12)
        values.append(limit * quad.value ** (1.0 / p))
    increasing = all(values[i] < values[i + 1] for i in range(len(values) - 1))
    close = abs(values[-1] - limit) <= 0.01
    return _report("lp_limit", limit, None, [],
                   {"p_values": list(p_values), "values": values,
                    "increasing": increasing, "final_gap": limit - values[-1]},
                   passed=increasing and close, threshold=0.01)


@dataclass(frozen=True)
class GrowthRow:
    d: int
    n: int
    mean: float
    std_error: float
    root: float
    base: float


def facet_growth_table(alpha: float, d_range, trials: int, master_seed: int,
                       k_mode: str = "min") -> list[GrowthRow]:
    """Trend table of (E e_k)^(1/d) against the theoretical growth base.

    k_mode 'min' uses k = 0 (facets, base at r = 0); 'middle' uses the
    middle layer (base at r = 1/2). Diagnostic only: the finite-d offset of
    the root from the base has no universal rate.
    """
    if k_mode not in ("min", "middle"):
        raise ValueError("k_mode must be 'min' or 'middle'")
    r = 0.0 if k_mode == "min" else 0.5
    if any(not math.isfinite(alpha * d) for d in d_range):
        raise ValueError(f"need a finite n = alpha * d, got alpha {alpha}")
    base = theory.growth_base_kfacet(alpha, r)
    rows = []
    for d in d_range:
        n = round(alpha * d)
        if n < d + 1:
            raise ValueError(f"alpha {alpha} gives n <= d at d = {d}")
        k = 0 if k_mode == "min" else (n - d) // 2
        est = kfacet_expectation_mc(n, d, k, trials, master_seed)
        rows.append(GrowthRow(d=d, n=n, mean=est.mean,
                              std_error=est.std_error,
                              root=est.mean ** (1.0 / d), base=base))
    return rows


def growth_rows_to_csv(rows, fh) -> None:
    fh.write("d,n,mean,se,root,base\n")
    for row in rows:
        fh.write(f"{row.d},{row.n},{format(row.mean, '.17g')},"
                 f"{format(row.std_error, '.17g')},"
                 f"{format(row.root, '.17g')},{format(row.base, '.17g')}\n")


def verify_kfacet_reduction(n: int, d: int, k: int, trials_full: int,
                            trials_reduced: int,
                            master_seed: int) -> VerificationReport:
    """The one-case call of verify_kfacet_reductions."""
    return verify_kfacet_reductions([(n, d, k)], trials_full, trials_reduced,
                                    master_seed)[0]


def verify_kfacet_reductions(cases, trials_full: int, trials_reduced: int,
                             master_seed: int) -> list[VerificationReport]:
    """Triangulate the per-subset k-facet probability three ways, for each
    (n, d, k) of ``cases`` in order.

    Exact quadrature, the full d-dimensional experiment, and the scalar
    reduced experiment must pairwise agree within 3 combined standard
    errors. Cases share one full-leg run per (n, d) and one reduced run per
    n - d, each reading its own columns.
    """
    exact = [theory.kfacet_probability_exact(n, d, k) for n, d, k in cases]
    pairs = dict.fromkeys((n, d) for n, d, _ in cases)
    full = {(n, d): _profile_mc(n, geometry.subset_array(d, d), trials_full,
                                master_seed) for n, d in pairs}
    reduced = {m: _reduced_profiles_mc(m, [d for n, d in pairs if n - d == m],
                                       trials_reduced, master_seed)
               for m in dict.fromkeys(n - d for n, d in pairs)}
    reports = []
    for (n, d, k), p in zip(cases, exact):
        est, red = full[n, d][k], reduced[n - d][d][k]
        se_pair = math.sqrt(est.std_error ** 2 + red.std_error ** 2)
        zs = {"full_vs_exact": _z(est.mean, p, est.std_error),
              "reduced_vs_exact": _z(red.mean, p, red.std_error),
              "full_vs_reduced": _z(est.mean, red.mean, se_pair)}
        reports.append(_report(
            f"kfacet_reduction[n={n},d={d},k={k}]", p, est, zs.values(),
            {"n": n, "d": d, "k": k, **zs, "reduced_estimate": red.as_dict()}))
    return reports
