"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Monte Carlo criteria use pinned seeds; the 3-sigma gates have a ~0.3%
false-failure rate per check under reseeding, so seeds were chosen once and
fixed (never tuned per-check: one master seed per criterion).
"""

import contextlib
import io
import json
import math
import time

import numpy as np

from gpoly import cli, experiments as ex, theory as th
from gpoly.geometry import kfacet_profile
from gpoly.sampling import gaussian_point_set, stream


def _report(num: int, passed: bool, elapsed: float, limit: float, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:2d}: {status} ({elapsed:.1f}s / limit {limit:.0f}s) {detail}")
    assert passed, f"criterion {num}: {detail}"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_criterion_01_estranged_constants():
    t0 = time.perf_counter()
    code, out = _run_cli(["constants", "estranged"])
    elapsed = time.perf_counter() - t0
    payload = json.loads(out)
    by_signs = {c["parameters"]["signs"]: c["value"]
                for c in payload["constants"]}
    checks = [
        code == 0,
        abs(by_signs["--"] - 0.4424) <= 5e-4,
        abs(by_signs["+-"] - 0.355) <= 1e-3,
        abs(by_signs["-+"] - 0.355) <= 1e-3,
        abs(by_signs["++"] - 0.25) <= 1e-9,
        1.7670 <= payload["four_c"] <= 1.7722,
    ]
    detail = (f"C--={by_signs['--']:.6f} C+-={by_signs['+-']:.6f} "
              f"C++={by_signs['++']:.10f} 4C={payload['four_c']:.6f}")
    _report(1, all(checks), elapsed, 10.0, detail)


def test_criterion_02_exact_kfacet_anchors():
    t0 = time.perf_counter()
    e0 = th.kfacet_expectation_exact(3, 1, 0)
    e1 = th.kfacet_expectation_exact(3, 1, 1)
    elapsed = time.perf_counter() - t0
    ok = abs(e0 - 2.0) <= 1e-9 and abs(e1 - 1.0) <= 1e-9
    _report(2, ok, elapsed, 1.0, f"E e0(3,1)={e0:.12f} E e1(3,1)={e1:.12f}")


def test_criterion_03_reduction_triangulation():
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    cases = ((5, 2, 0), (5, 2, 1), (6, 3, 0), (8, 4, 2))  # (n, d, k)
    for rep in ex.verify_kfacet_reductions(cases, trials_full=100_000,
                                           trials_reduced=1_000_000,
                                           master_seed=42):
        ok = ok and rep.passed
        worst = max(worst, *(abs(rep.details[key]) for key in
                             ("full_vs_exact", "reduced_vs_exact",
                              "full_vs_reduced")))
    elapsed = time.perf_counter() - t0
    _report(3, ok, elapsed, 120.0,
            f"4 cases, worst pairwise |z|={worst:.2f} <= 3")


def test_criterion_04_growth_base_identity():
    t0 = time.perf_counter()
    base = th.growth_base_kfacet(2.0, 0.5)
    elapsed = time.perf_counter() - t0
    _report(4, abs(base - 4.0) <= 1e-9, elapsed, 1.0,
            f"base(2, 1/2) = {base:.12f}")


def test_criterion_05_combinatorial_identities():
    t0 = time.perf_counter()
    cases = [(1, 4), (1, 9), (2, 5), (2, 8), (2, 12), (3, 7), (3, 10),
             (4, 9), (4, 11), (5, 8), (5, 11), (5, 12)]
    instances = 0
    ok = True
    seed = 0
    while instances < 200:
        d, n = cases[instances % len(cases)]
        ps = gaussian_point_set(stream(777, seed), n, d)
        e = kfacet_profile(ps).e
        ok = ok and bool(np.array_equal(e, e[::-1]))
        if (n - d) % 2 == 1:
            ok = ok and int(e.sum()) == 2 * math.comb(n, d)
        else:
            ok = ok and 0 <= 2 * math.comb(n, d) - int(e.sum())
        instances += 1
        seed += 1
    elapsed = time.perf_counter() - t0
    _report(5, ok, elapsed, 30.0,
            f"{instances} instances, symmetry and sum identity exact")


def test_criterion_06_blaschke_and_simplex_volume():
    t0 = time.perf_counter()
    ok = True
    worst_z = worst_rel = 0.0
    for d in range(1, 6):
        for rep in ex.verify_gaussian_simplex(d, trials=100_000,
                                              master_seed=42):
            rel = abs(rep.estimate.mean / rep.theory - 1.0)
            ok = ok and rep.passed and rel <= 0.02
            worst_z = max(worst_z, abs(rep.z))
            worst_rel = max(worst_rel, rel)
    elapsed = time.perf_counter() - t0
    _report(6, ok, elapsed, 60.0,
            f"d<=5 at 1e5 trials, worst |z|={worst_z:.2f}, "
            f"worst rel={worst_rel:.4f} <= 0.02")


def test_criterion_07_truncated_lower_bound():
    t0 = time.perf_counter()
    ok = True
    tightest = math.inf
    for d in range(3, 9):
        for t in (0.0, 0.5, 2.0):
            rep = ex.verify_truncated_bound(d, t, trials=20_000,
                                            master_seed=5)
            ok = ok and rep.passed
            margin = (rep.estimate.mean
                      + 3 * rep.estimate.std_error) / rep.theory
            tightest = min(tightest, margin)
    elapsed = time.perf_counter() - t0
    _report(7, ok, elapsed, 120.0,
            f"18 (d, t) cases, min (mean + 3se)/bound = {tightest:.2f} >= 1")


def test_criterion_08_estranged_estimator_consistency():
    t0 = time.perf_counter()
    ok = True
    detail = []
    for d in (2, 3):
        n_est = ex.estranged_expectation_mc(d, trials=200_000, master_seed=8)
        p_est = ex.pair_facet_probability_mc(d, trials=200_000, master_seed=9)
        pairs = math.comb(2 * d, d) / 2
        se = math.sqrt(n_est.std_error ** 2 + (pairs * p_est.std_error) ** 2)
        z = (n_est.mean - pairs * p_est.mean) / se
        ok = ok and abs(z) <= 3.0
        detail.append(f"d={d}: EN={n_est.mean:.4f} "
                      f"{pairs:.0f}P={pairs * p_est.mean:.4f} z={z:+.2f}")
    elapsed = time.perf_counter() - t0
    _report(8, ok, elapsed, 120.0, "; ".join(detail))


def test_criterion_09_lp_limit():
    t0 = time.perf_counter()
    rep = ex.verify_lp_limit((10, 100, 1000))
    elapsed = time.perf_counter() - t0
    values = rep.details["values"]
    limit = 1.0 / math.sqrt(2.0 * math.pi)
    ok = (rep.passed and values == sorted(values)
          and abs(values[-1] - limit) <= 0.01)
    _report(9, ok, elapsed, 1.0,
            f"values={['%.5f' % v for v in values]} -> {limit:.5f}")


def test_criterion_10_determinism_across_workers():
    t0 = time.perf_counter()
    commands = [
        ["kfacets", "mc", "--d", "2", "--n", "5", "--k", "1",
         "--trials", "2000", "--seed", "10"],
        ["kfacets", "mc", "--d", "2", "--n", "5", "--all-k",
         "--trials", "2000", "--seed", "10"],
        ["kfacets", "reduced", "--d", "3", "--n", "6", "--k", "0",
         "--trials", "4000", "--seed", "10"],
        ["estranged", "mc", "--d", "2", "--trials", "2000", "--seed", "10"],
        ["estranged", "pairprob", "--d", "3", "--trials", "2000",
         "--seed", "10"],
        ["verify", "--suite", "simplex", "--seed", "10", "--trials", "2000"],
        ["growth", "--alpha", "2", "--d-min", "2", "--d-max", "3",
         "--trials", "1000", "--seed", "10"],
    ]
    ok = True
    for base_cmd in commands:
        outputs = set()
        for workers in ("1", "8"):
            for _ in range(2):  # rerun: byte-identical
                code, out = _run_cli(base_cmd + ["--workers", workers])
                ok = ok and code == 0
                outputs.add(out)
        ok = ok and len(outputs) == 1
    elapsed = time.perf_counter() - t0
    _report(10, ok, elapsed, 60.0,
            f"{len(commands)} MC commands x workers {{1,8}} x reruns: "
            "identical bytes")
