"""The benchmark's workloads: which gpoly commands each one runs, and how
each command's output is checked.

A workload is a list of ``once`` commands, run at the start of every run,
and a list of commands per round, run in whole rounds until the run's time
is up. Round ``j`` of a run with seed ``s`` always gets the same flags, so a
seed fixes the inputs. Every command is one operation; its output is checked
against values from ``reference``, never against stored output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref

Z_MAX = 5.0  # a Monte Carlo estimate may miss its reference by 5 std errors


@dataclass(eq=False)
class Op:
    """One ``gpoly`` call and what it produced."""

    argv: list[str]
    code: int | None = None
    stdout: str = ""
    error: str | None = None
    problem: str | None = None  # set by the workload's check


@dataclass(frozen=True)
class Workload:
    name: str
    once: Callable[[int], list[list[str]]]
    round: Callable[[int, int], list[list[str]]]
    max_rounds: int
    ok_codes: tuple[int, ...]
    # check(stdout) says what is wrong with one command's output, or None
    check: Callable[[str], str | None]


def op_seed(seed: int, round_index: int, position: int) -> int:
    """The --seed flag of one command: a hash of the run seed and its place."""
    return int(np.random.SeedSequence([seed, round_index, position])
               .generate_state(1)[0])


def _within(est: dict, target: float) -> bool:
    return abs(est["mean"] - target) <= Z_MAX * est["std_error"]


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


# --- verify-suite ------------------------------------------------------------

# One 4096-trial chunk per check; the reduced experiment of the thm32
# checks runs 10x as many trials in 10 chunks, on the worker pool.
VERIFY_TRIALS = 4096


def _verify_round(seed: int, j: int) -> list[list[str]]:
    return [["verify", "--suite", "all", "--trials", str(VERIFY_TRIALS),
             "--seed", str(op_seed(seed, j, 0))]]


def _two_sided(target: float) -> Callable[[dict], bool]:
    return lambda c: _within(c["estimate"], target)


def _truncated(bound: float) -> Callable[[dict], bool]:
    return lambda c: (c["estimate"]["mean"]
                      + Z_MAX * c["estimate"]["std_error"]) >= bound


def _logconcave(family: str) -> Callable[[dict], bool]:
    def check(c: dict) -> bool:
        est = c["estimate"]
        low = est["mean"] - Z_MAX * est["std_error"]
        return (_within(est, ref.abs_moment(family))
                and low >= 0.125 * math.sqrt(c["details"]["mean_sq"]))
    return check


def _dot(d: int) -> Callable[[dict], bool]:
    m2, m4 = ref.dot_moments(d)
    return lambda c: (_within(c["estimate"], m2)
                      and _within(c["details"]["moment4_estimate"], m4))


def _lp(c: dict) -> bool:
    p_values, values = c["details"]["p_values"], c["details"]["values"]
    return (p_values == [10, 100, 1000]
            and all(_close(v, ref.lp_value(p), 1e-9)
                    for p, v in zip(p_values, values)))


def _reduction(n: int, d: int, k: int) -> Callable[[dict], bool]:
    p = float(ref.kfacet_probabilities(n, d)[k])
    return lambda c: (_within(c["estimate"], p)
                      and _within(c["details"]["reduced_estimate"], p))


def verify_checks() -> dict[str, Callable[[dict], bool]]:
    """The 43 checks of ``verify --suite all``, by name, with their tests."""
    checks = {}
    for d in range(1, 6):
        checks[f"blaschke[gaussian,d={d}]"] = _two_sided(
            ref.blaschke_target(d, 1.0))
    for d in (2, 3):
        checks[f"blaschke[uniform-cube,d={d}]"] = _two_sided(
            ref.blaschke_target(d, 12.0 ** -d))
    for d in range(1, 7):
        checks[f"simplex_volume[d={d}]"] = _two_sided(
            ref.gaussian_simplex_volume(d))
    for d in range(3, 9):
        for t in (0.0, 0.5, 2.0):
            checks[f"truncated_bound[d={d},t={t}]"] = _truncated(
                ref.truncated_lower_bound(d))
    for family in ("uniform", "gaussian", "truncated-gaussian", "laplace"):
        checks[f"logconcave_moment[{family}]"] = _logconcave(family)
    for d in (2, 3, 8):
        checks[f"dot_density[d={d}]"] = _dot(d)
    checks["lp_limit"] = _lp
    for d, n, k in ((2, 5, 0), (2, 5, 1), (3, 6, 0), (4, 8, 2)):
        checks[f"kfacet_reduction[n={n},d={d},k={k}]"] = _reduction(n, d, k)
    return checks


def _check_verify(stdout: str) -> str | None:
    checks = verify_checks()
    payload = json.loads(stdout)
    names = [c["name"] for c in payload["checks"]]
    if sorted(names) != sorted(checks):
        return f"unexpected check list {names}"
    bad = [c["name"] for c in payload["checks"] if not checks[c["name"]](c)]
    return f"outside {Z_MAX} std errors: {bad}" if bad else None


# --- constants ---------------------------------------------------------------

KFACET_PER_ROUND = 48
# m = n - d of the exact profiles: two per m in each round, with d drawn
# from D_RANGE without repeats, so no (n, d) recurs within a run
EXACT_M = (21, 40, 61)
D_RANGE = range(2, 162)


def _constants_once(seed: int) -> list[list[str]]:
    return [["constants", "estranged"],
            ["constants", "kfacet", "--alpha", "2", "--r", "0.5"]]


def _constants_round(seed: int, j: int) -> list[list[str]]:
    rng = np.random.default_rng([seed, j])
    alphas = rng.uniform(1.1, 6.0, KFACET_PER_ROUND)
    rs = rng.uniform(0.0, 1.0, KFACET_PER_ROUND)
    argvs = [["constants", "kfacet", "--alpha", repr(float(a)),
              "--r", repr(float(r))] for a, r in zip(alphas, rs)]
    for i, m in enumerate(EXACT_M):
        order = np.random.default_rng([seed, 1000 + i]).permutation(D_RANGE)
        for d in order[2 * j:2 * j + 2]:
            argvs.append(["kfacets", "exact", "--n", str(d + m),
                          "--d", str(d), "--all-k"])
    return argvs


def _kfacet_constant_problem(payload: dict) -> str | None:
    alpha, r = payload["params"]["alpha"], payload["params"]["r"]
    c = payload["c"]
    at_argmax = float(ref.c_objective(c["argmax"][0], alpha, r))
    if not _close(c["value"], at_argmax, 1e-9):
        return f"c = {c['value']} but the objective at its argmax is {at_argmax}"
    if c["value"] < ref.c_grid_max(alpha, r) * (1.0 - 1e-12):
        return "c is below the reference grid maximum"
    if not _close(payload["growth_base"], ref.growth_base(alpha, r, at_argmax),
                  1e-9):
        return "growth base does not match 2^(...) sqrt(2 pi) c"
    if (alpha, r) == (2.0, 0.5) and abs(payload["growth_base"] - 4.0) > 1e-9:
        return f"growth base at (2, 1/2) is {payload['growth_base']}, not 4"
    return None


def _estranged_constants_problem(payload: dict) -> str | None:
    by_signs = {}
    for rec in payload["constants"]:
        s = rec["parameters"]["signs"]
        x = rec["argmax"]
        at_argmax = float(ref.estranged_kernel(x[0], x[1], x[2], s[0], s[1]))
        if not _close(rec["value"], at_argmax, 1e-9):
            return f"C{s} = {rec['value']} but the kernel there is {at_argmax}"
        if rec["value"] < ref.estranged_grid_max(s[0], s[1]) * (1 - 1e-12):
            return f"C{s} is below the reference grid maximum"
        by_signs[s] = rec["value"]
    red = payload["reduced"]
    at_argmax = float(ref.estranged_reduced_kernel(*red["argmax"]))
    problems = [
        (abs(by_signs["++"] - 0.25) > 1e-9, "C++ != 1/4"),
        (abs(by_signs["+-"] - by_signs["-+"]) > 1e-9, "C+- != C-+"),
        (abs(red["value"] - by_signs["--"]) > 1e-9, "reduced != C--"),
        (not _close(red["value"], at_argmax, 1e-9), "reduced kernel mismatch"),
        (red["value"] < ref.estranged_reduced_grid_max() * (1 - 1e-12),
         "reduced constant below the reference grid maximum"),
        (not _close(payload["four_c"], 4 * red["value"], 1e-15), "4C != 4 C"),
        (not 1.7670 <= payload["four_c"] <= 1.7722, "4C outside [1.7670, 1.7722]"),
    ]
    failed = [text for bad, text in problems if bad]
    return "; ".join(failed) if failed else None


def _exact_profile_problem(payload: dict) -> str | None:
    n, d = payload["params"]["n"], payload["params"]["d"]
    m = n - d
    p = np.array([r["probability"] for r in payload["results"]])
    if [r["k"] for r in payload["results"]] != list(range(m + 1)):
        return "wrong list of k"
    if not np.allclose(p, p[::-1], rtol=1e-9, atol=0.0):
        return "p_k != p_(m-k)"
    # each subset is a b-facet and an (m-b)-facet, once when b = m - b
    total = p.sum() + (p[m // 2] if m % 2 == 0 else 0.0)
    if abs(total - 2.0) > 1e-9:
        return f"sum of p_k is {p.sum()}"
    mine = ref.kfacet_probabilities(n, d)
    if not np.allclose(p, mine, rtol=1e-7, atol=0.0):
        return f"p_k differs from the reference by {np.max(np.abs(p / mine - 1))}"
    log_comb = math.lgamma(n + 1) - math.lgamma(d + 1) - math.lgamma(m + 1)
    logs = np.array([r["log_expectation"] for r in payload["results"]])
    if not np.allclose(logs, log_comb + np.log(mine), rtol=0.0, atol=1e-7):
        return "log E e_k != log C(n, d) + log p_k"
    expectations = np.array([r["expectation"] for r in payload["results"]])
    if not np.allclose(expectations, np.exp(logs), rtol=1e-12, atol=0.0):
        return "E e_k != exp(log E e_k)"
    return None


def _check_constants(stdout: str) -> str | None:
    payload = json.loads(stdout)
    if payload["command"] == "kfacets":
        return _exact_profile_problem(payload)
    if payload["target"] == "kfacet":
        return _kfacet_constant_problem(payload)
    return _estranged_constants_problem(payload)


WORKLOADS = {
    "verify-suite": Workload("verify-suite", lambda seed: [], _verify_round,
                             max_rounds=100, ok_codes=(0, 1),
                             check=_check_verify),
    "constants": Workload("constants", _constants_once, _constants_round,
                          max_rounds=len(D_RANGE) // 2, ok_codes=(0,),
                          check=_check_constants),
}
