"""Command-line surface: sampling, enumeration, exact formulas, constants,
Monte Carlo experiments, and the verification suite.

Every command is a pure function of its flags and seed: rerunning with the
same arguments produces byte-identical primary output (``--workers`` and
GPOLY_WORKERS are accepted and ignored). Primary output (JSON or CSV) goes
to stdout, or to --out when given; writing to --out also appends a run
record (with timestamps and an output digest) to runs.jsonl next to the
output file. Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, experiments, theory
from .sampling import gaussian_point_set, stream

_VERIFY_SUITES = ("all", "blaschke", "simplex", "truncated", "logconcave",
                  "dotdensity", "lp", "thm32")

_REDUCTION_CASES = ((2, 5, 0), (2, 5, 1), (3, 6, 0), (4, 8, 2))

_WORKERS_HELP = ("accepted for compatibility and ignored: Monte Carlo runs "
                 "are single-threaded")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _dump_json(payload: dict) -> str:
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _seed(text: str) -> int:
    return int(text) % (1 << 64)


def _emit(args, text: str, record: dict) -> None:
    """Write the primary output to stdout or --out; record the run if filed."""
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
        _append_run_record(args, text, record)
        sys.stderr.write(f"wrote {args.out}\n")
    else:
        sys.stdout.write(text)


def _append_run_record(args, text: str, record: dict) -> None:
    out_dir = os.path.dirname(os.path.abspath(args.out))
    entry = {
        "command": record["command"],
        "argv": record["argv"],
        "params": record["params"],
        "master_seed": record.get("master_seed"),
        "started_at": record["started_at"],
        "finished_at": datetime.now(timezone.utc).isoformat(),
        "output_path": os.path.abspath(args.out),
        "output_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "artifact_version": __version__,
    }
    with open(os.path.join(out_dir, "runs.jsonl"), "a") as fh:
        fh.write(json.dumps(_jsonable(entry), sort_keys=True) + "\n")


def _merge_params_file(argv: list[str]) -> list[str]:
    """Expand `--params FILE` into flags placed before the explicit ones.

    The file holds `key=value` lines ('#' comments allowed); explicit flags
    win because argparse keeps the last occurrence.
    """
    if "--params" not in argv:
        return argv
    i = argv.index("--params")
    if i + 1 >= len(argv):
        raise SystemExit(2)
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2:]
    injected: list[str] = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if value.lower() in ("true", ""):
                injected.append(f"--{key}")
            elif value.lower() == "false":
                continue
            else:
                injected.extend([f"--{key}", value])
    # flags live after the subcommand token; inject right behind it
    if not rest:
        return injected
    return rest[:1] + injected + rest[1:]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpoly",
        description="Gaussian random point sets: sampling, k-facet "
                    "enumeration, growth constants, and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample a Gaussian point set to CSV")
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", help="CSV path (stdout when omitted)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("kfacets", help="k-facet expectations, exact or MC")
    p.add_argument("mode", choices=("exact", "mc", "reduced"))
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--all-k", action="store_true", dest="all_k")
    p.add_argument("--trials", type=_positive_int, default=100000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--workers", type=_positive_int, help=_WORKERS_HELP)
    p.add_argument("--out")
    p.set_defaults(func=cmd_kfacets)

    p = sub.add_parser("constants", help="variational growth constants")
    p.add_argument("target", choices=("kfacet", "estranged"))
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("estranged", help="estranged-pair Monte Carlo")
    p.add_argument("mode", choices=("mc", "pairprob"))
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--trials", type=_positive_int, default=100000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--workers", type=_positive_int, help=_WORKERS_HELP)
    p.add_argument("--out")
    p.set_defaults(func=cmd_estranged)

    p = sub.add_parser("verify", help="theory-versus-simulation check suites")
    p.add_argument("--suite", choices=_VERIFY_SUITES, default="all")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--trials", type=_positive_int, default=100000,
                   help="MC trials per check (the reduced scalar experiment "
                        "uses 10x this)")
    p.add_argument("--workers", type=_positive_int, help=_WORKERS_HELP)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("growth", help="(E e_k)^(1/d) trend table as CSV")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--d-min", type=_positive_int, default=2)
    p.add_argument("--d-max", type=_positive_int, default=6)
    p.add_argument("--k-mode", choices=("min", "middle"), default="min")
    p.add_argument("--trials", type=_positive_int, default=2000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--workers", type=_positive_int, help=_WORKERS_HELP)
    p.add_argument("--out")
    p.set_defaults(func=cmd_growth)

    return parser


def _start_record(args, command: str, params: dict) -> dict:
    return {"command": command, "argv": sys.argv[1:], "params": params,
            "master_seed": params.get("seed"),
            "started_at": datetime.now(timezone.utc).isoformat()}


def cmd_sample(args) -> int:
    record = _start_record(args, "sample",
                           {"d": args.d, "n": args.n, "seed": args.seed})
    ps = gaussian_point_set(stream(args.seed, 0), args.n, args.d)
    buf = io.StringIO()
    ps.write_csv(buf)
    text = buf.getvalue()
    _emit(args, text, record)
    provenance = _dump_json({"command": "sample", "n": args.n, "d": args.d,
                             "master_seed": args.seed, "stream_id": 0})
    (sys.stdout if args.out else sys.stderr).write(provenance)
    return 0


def cmd_kfacets(args) -> int:
    if args.all_k == (args.k is not None):
        raise SystemExit(_usage_error("pass exactly one of --k or --all-k"))
    ks = list(range(args.n - args.d + 1)) if args.all_k else [args.k]
    for k in ks:
        if not 0 <= k <= args.n - args.d:
            raise SystemExit(_usage_error(f"k = {k} outside 0..{args.n - args.d}"))
    params = {"mode": args.mode, "n": args.n, "d": args.d,
              "k": None if args.all_k else args.k, "all_k": args.all_k,
              "seed": args.seed,
              "trials": None if args.mode == "exact" else args.trials}
    record = _start_record(args, "kfacets", params)

    results = []
    if args.mode == "mc" and args.all_k:
        ests = experiments.kfacet_profile_expectation_mc(
            args.n, args.d, args.trials, args.seed)
        results = [{"k": k, "expectation": est.as_dict()}
                   for k, est in enumerate(ests)]
    else:
        for k in ks:
            if args.mode == "exact":
                p = theory.kfacet_probability_exact(args.n, args.d, k)
                log_e = theory.kfacet_log_expectation_from_probability(
                    args.n, args.d, p)
                results.append({"k": k, "probability": p,
                                "expectation": math.exp(log_e),
                                "log_expectation": log_e})
            elif args.mode == "mc":
                est = experiments.kfacet_expectation_mc(
                    args.n, args.d, k, args.trials, args.seed)
                results.append({"k": k, "expectation": est.as_dict()})
            else:
                est = experiments.reduced_kfacet_probability_mc(
                    args.n, args.d, k, args.trials, args.seed)
                scale = math.comb(args.n, args.d)
                results.append({
                    "k": k, "probability": est.as_dict(),
                    "implied_expectation": {"mean": est.mean * scale,
                                            "std_error": est.std_error * scale},
                })
    _emit(args, _dump_json({"command": "kfacets", "params": params,
                            "results": results}), record)
    return 0


def cmd_constants(args) -> int:
    if args.target == "kfacet":
        if args.alpha is None or args.r is None:
            raise SystemExit(_usage_error("kfacet constants need --alpha and --r"))
        if args.alpha <= 1.0 or not 0.0 <= args.r <= 1.0:
            raise SystemExit(_usage_error("need alpha > 1 and r in [0, 1]"))
        params = {"alpha": args.alpha, "r": args.r}
        record = _start_record(args, "constants", params)
        c = theory.c_alpha_r(args.alpha, args.r)
        payload = {"command": "constants", "target": "kfacet",
                   "params": params,
                   "c": c.as_record("c_alpha_r"),
                   "growth_base": theory.growth_base_from_c(
                       args.alpha, args.r, c.value)}
    else:
        params = {}
        record = _start_record(args, "constants", params)
        signs = [("-", "-"), ("+", "-"), ("-", "+"), ("+", "+")]
        constants = [theory.estranged_constant(s1, s2).as_record(
            f"estranged[{s1}{s2}]") for s1, s2 in signs]
        reduced = theory.estranged_constant_reduced().as_record(
            "estranged_reduced")
        payload = {"command": "constants", "target": "estranged",
                   "constants": constants, "reduced": reduced,
                   "four_c": 4.0 * reduced["value"]}
    _emit(args, _dump_json(payload), record)
    return 0


def cmd_estranged(args) -> int:
    params = {"mode": args.mode, "d": args.d, "trials": args.trials,
              "seed": args.seed}
    record = _start_record(args, "estranged", params)
    try:
        if args.mode == "mc":
            est = experiments.estranged_expectation_mc(
                args.d, args.trials, args.seed)
        else:
            est = experiments.pair_facet_probability_mc(
                args.d, args.trials, args.seed)
    except experiments.ResourceCapError as exc:
        raise SystemExit(_usage_error(str(exc)))
    root = est.mean ** (1.0 / args.d) if est.mean > 0 else 0.0
    reference = (4.0 if args.mode == "mc" else 1.0) \
        * theory.estranged_constant_reduced().value
    payload = {"command": "estranged", "params": params,
               "estimate": est.as_dict(),
               "root_per_dimension": root,
               "reference_base": reference}
    _emit(args, _dump_json(payload), record)
    return 0


def _suite_checks(suite: str, seed: int, trials: int):
    checks = []
    if suite in ("all", "blaschke"):
        for d in (1, 2, 3, 4, 5):
            checks.append(experiments.verify_blaschke(
                d, trials, seed, "gaussian"))
        for d in (2, 3):
            checks.append(experiments.verify_blaschke(
                d, trials, seed + 1, "uniform-cube"))
    if suite in ("all", "simplex"):
        for d in (1, 2, 3, 4, 5, 6):
            checks.append(experiments.verify_simplex_volume(
                d, trials, seed))
    if suite in ("all", "truncated"):
        for d in (3, 4, 5, 6, 7, 8):
            for t in (0.0, 0.5, 2.0):
                checks.append(experiments.verify_truncated_bound(
                    d, t, max(trials // 5, 2), seed))
    if suite in ("all", "logconcave"):
        for family in experiments.LOGCONCAVE_FAMILIES:
            checks.append(experiments.verify_logconcave_moment(
                family, trials, seed))
    if suite in ("all", "dotdensity"):
        for d in (2, 3, 8):
            checks.append(experiments.verify_dot_density(
                d, trials, seed))
    if suite in ("all", "lp"):
        checks.append(experiments.verify_lp_limit())
    if suite in ("all", "thm32"):
        for d, n, k in _REDUCTION_CASES:
            checks.append(experiments.verify_kfacet_reduction(
                n, d, k, trials, 10 * trials, seed))
    return checks


def cmd_verify(args) -> int:
    params = {"suite": args.suite, "seed": args.seed, "trials": args.trials}
    record = _start_record(args, "verify", params)
    checks = _suite_checks(args.suite, args.seed, args.trials)
    passed = all(c.passed for c in checks)
    payload = {"command": "verify", "params": params,
               "checks": [c.as_dict() for c in checks],
               "passed": passed,
               "failed_checks": [c.name for c in checks if not c.passed]}
    _emit(args, _dump_json(payload), record)
    if not passed:
        sys.stderr.write("failed: " + ", ".join(payload["failed_checks"]) + "\n")
        return 1
    return 0


def cmd_growth(args) -> int:
    if args.alpha <= 1.0:
        raise SystemExit(_usage_error("need alpha > 1"))
    if args.d_max < args.d_min:
        raise SystemExit(_usage_error("need d-max >= d-min"))
    params = {"alpha": args.alpha, "d_min": args.d_min, "d_max": args.d_max,
              "k_mode": args.k_mode, "trials": args.trials, "seed": args.seed}
    record = _start_record(args, "growth", params)
    try:
        rows = experiments.facet_growth_table(
            args.alpha, range(args.d_min, args.d_max + 1), args.trials,
            args.seed, k_mode=args.k_mode)
    except experiments.ResourceCapError as exc:
        raise SystemExit(_usage_error(str(exc)))
    buf = io.StringIO()
    experiments.growth_rows_to_csv(rows, buf)
    _emit(args, buf.getvalue(), record)
    return 0


def _usage_error(message: str) -> int:
    sys.stderr.write(f"gpoly: error: {message}\n")
    return 2


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _merge_params_file(argv)
    except OSError as exc:
        return _usage_error(f"cannot read params file: {exc}")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, experiments.ResourceCapError) as exc:
        return _usage_error(str(exc))
    except OSError as exc:
        sys.stderr.write(f"gpoly: I/O error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
