"""gpoly's layers as the traced run sees them: which functions get a span
wrapper, under which layer name, and how the spans become per-layer metrics.

Each wrapper goes where callers look the name up: ``from .mathcore import
simplex_volume`` binds the name in ``gpoly.experiments``, so that is where
it is wrapped. Hot inner kernels (quadrature integrands, ``dot_density``,
the special functions) are left alone, since a wrapper per evaluation would
cost more than the evaluation.
"""

from __future__ import annotations

import numpy as np

import spans

_EXPERIMENTS = (
    "verify_blaschke", "verify_simplex_volume", "verify_truncated_bound",
    "verify_logconcave_moment", "verify_dot_density", "verify_lp_limit",
    "verify_kfacet_reduction", "kfacet_expectation_mc",
    "kfacet_profile_expectation_mc", "fixed_subset_kfacet_probability_mc",
    "reduced_kfacet_probability_mc", "estranged_expectation_mc",
    "pair_facet_probability_mc", "facet_growth_table")
_THEORY = (
    "kfacet_probability_exact", "kfacet_log_expectation_exact",
    "kfacet_expectation_exact", "c_alpha_r", "growth_base_kfacet",
    "estranged_constant", "estranged_constant_reduced",
    "gaussian_simplex_expected_volume", "truncated_simplex_lower_bound")


def _arg(i: int, key: str):
    return lambda args, kwargs, result: (args[i] if len(args) > i
                                         else kwargs[key])


def _result_size(args, kwargs, result) -> int:
    """Values returned: drawn by a stream, or kept by _truncated_coords."""
    return int(np.size(result))


def _subsets(args, kwargs, result) -> int:
    subsets = args[1] if len(args) > 1 else kwargs["subsets"]
    return len(subsets)


def targets(gpoly) -> list[spans.Target]:
    """The wrapped functions of the loaded gpoly package."""
    cli, ex, geo, th = gpoly.cli, gpoly.experiments, gpoly.geometry, gpoly.theory
    rng = gpoly.sampling.RngStream
    out = [spans.Target(cli, "main", "cli.main"),
           spans.Target(ex, "mc_run", "experiments.mc_run",
                        _arg(1, "trials")),
           spans.Target(ex, "mc_run_vector", "experiments.mc_run",
                        _arg(2, "trials")),
           spans.Target(rng, "reset", "sampling.reset"),
           spans.Target(rng, "standard_normal", "sampling.draw",
                        _result_size),
           spans.Target(rng, "uniform", "sampling.draw", _result_size),
           spans.Target(ex, "_truncated_coords", "sampling.truncated",
                        _result_size),
           spans.Target(ex, "simplex_volume", "mathcore.simplex_volume"),
           spans.Target(ex, "integrate_1d", "mathcore.integrate_1d",
                        lambda a, k, r: r.evaluations),
           spans.Target(th, "integrate_1d", "mathcore.integrate_1d",
                        lambda a, k, r: r.evaluations),
           spans.Target(th, "maximize_1d", "mathcore.maximize",
                        lambda a, k, r: r.refinements),
           spans.Target(th, "maximize_box", "mathcore.maximize",
                        lambda a, k, r: r.refinements),
           spans.Target(geo, "signed_distances", "geometry.signed_distances",
                        _subsets)]
    out += [spans.Target(ex, name, f"experiments.{name}") for name in _EXPERIMENTS]
    out += [spans.Target(th, name, f"theory.{name}") for name in _THEORY]
    return out


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def metrics(tracer: spans.Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer figures of the traced pass, as name -> (value, unit).

    Times per call are inclusive span times; the two ``self`` figures
    subtract the time covered by wrapped children.
    """
    s = tracer.spans()
    label = np.array(tracer.names)[s["name"]]
    duration = s["end"] - s["start"]
    own = spans.self_times(s["id"], s["parent"], s["start"], s["end"])
    parent_label = np.where(s["parent"] >= 0, label[s["parent"]], "")

    def layer(name: str) -> tuple[int, float, float, int]:
        """calls, inclusive ns, self ns, summed count of one span name."""
        m = label == name
        return (int(m.sum()), float(duration[m].sum()), float(own[m].sum()),
                int(s["count"][m].sum()))

    _, _, mc_self, trials = layer("experiments.mc_run")
    _, reset_ns, _, _ = layer("sampling.reset")
    draws, draw_ns, _, _ = layer("sampling.draw")
    _, _, _, needed = layer("sampling.truncated")
    in_truncation = (label == "sampling.draw") \
        & (parent_label == "sampling.truncated")
    drawn = int(s["count"][in_truncation].sum())
    vols, vol_ns, _, _ = layer("mathcore.simplex_volume")
    quads, quad_ns, _, evals = layer("mathcore.integrate_1d")
    maxs, max_ns, _, refinements = layer("mathcore.maximize")
    dists, dist_ns, _, subsets = layer("geometry.signed_distances")
    exacts, exact_ns, _, _ = layer("theory.kfacet_probability_exact")
    estr, estr_ns, _, _ = layer("theory.estranged_constant")
    cs, c_ns, _, _ = layer("theory.c_alpha_r")
    commands, _, cli_self, _ = layer("cli.main")
    us, ms = 1e-3, 1e-6
    return {
        "experiments.trials": (trials, "count"),
        "experiments.self_us_per_trial": (_per(mc_self, trials) * us, "us"),
        "sampling.reset_us_per_trial": (_per(reset_ns, trials) * us, "us"),
        "sampling.draw_us_per_call": (_per(draw_ns, draws) * us, "us"),
        "sampling.draw_calls": (draws, "count"),
        "sampling.truncation_accept_ratio": (_per(needed, drawn), "ratio"),
        "mathcore.simplex_volume_us_per_call": (_per(vol_ns, vols) * us, "us"),
        "mathcore.simplex_volume_calls": (vols, "count"),
        "mathcore.integrate_1d_ms_per_call": (_per(quad_ns, quads) * ms, "ms"),
        "mathcore.integrate_1d_evals_per_call": (_per(evals, quads), "count"),
        "mathcore.maximize_ms_per_call": (_per(max_ns, maxs) * ms, "ms"),
        "mathcore.maximize_refinements_per_call": (_per(refinements, maxs),
                                                   "count"),
        "geometry.signed_distances_us_per_call": (_per(dist_ns, dists) * us,
                                                  "us"),
        "geometry.signed_distances_calls": (dists, "count"),
        "geometry.us_per_subset": (_per(dist_ns, subsets) * us, "us"),
        "theory.kfacet_probability_exact_ms_per_call": (_per(exact_ns, exacts)
                                                        * ms, "ms"),
        "theory.kfacet_probability_exact_calls": (exacts, "count"),
        "theory.estranged_constant_ms_per_call": (_per(estr_ns, estr) * ms,
                                                  "ms"),
        "theory.c_alpha_r_ms_per_call": (_per(c_ns, cs) * ms, "ms"),
        "theory.c_alpha_r_calls": (cs, "count"),
        "cli.self_ms_per_command": (_per(cli_self, commands) * ms, "ms"),
    }
