"""Command-line surface: sampling, enumeration, exact formulas, constants,
Monte Carlo experiments, and the verification suite.

``main`` is the one path every command runs through. It expands
``--params``, parses with the parser it builds once per process, and calls
the command: a function of the parsed flags that returns an ``Output``, its
parameter map, primary text and exit code, and any note for after the text.
``main`` writes the text to stdout, or to --out, where it also appends a run
record (the argv ``main`` was given, the parameters, timestamps and an
output digest) to runs.jsonl next to the output file; then it writes the
note. It maps every usage error, a resource cap included, to
``gpoly: error: ...`` and exit 2, an I/O error to exit 1, and a failed run
(a Monte Carlo trial or a quadrature that raised) to ``gpoly: error: ...``
and exit 3; argparse's own parse errors exit 2 as argparse does.

Every command is a pure function of its flags and seed: rerunning with the
same arguments produces byte-identical primary output (``--workers`` and
GPOLY_WORKERS are accepted and ignored). Exit codes: 0 success, 1
verification failure or I/O error, 2 usage error, 3 failed run.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import math
import os
import sys
from datetime import datetime, timezone
from typing import NamedTuple

from . import __version__, experiments, theory
from .mathcore import QuadratureError
from .sampling import gaussian_point_set, stream

_VERIFY_SUITES = ("all", "blaschke", "simplex", "truncated", "logconcave",
                  "dotdensity", "lp", "thm32")

_REDUCTION_CASES = ((5, 2, 0), (5, 2, 1), (6, 3, 0), (8, 4, 2))  # (n, d, k)

_WORKERS_HELP = ("accepted for compatibility and ignored: Monte Carlo runs "
                 "are single-threaded")


class Output(NamedTuple):
    """What a command returns to ``main``."""

    params: dict
    text: str  # the primary output, for stdout or --out
    code: int = 0
    note: str = ""  # written after the primary output, to stderr
    note_to_stdout: bool = False  # or to stdout, when --out left it free


def _dump_json(payload: dict) -> str:
    """Strict JSON: numpy values as Python values, non-finite floats as null."""
    return json.dumps(_plain(payload), sort_keys=True, indent=2,
                      separators=(",", ": "), allow_nan=False) + "\n"


def _plain(value):
    if hasattr(value, "tolist"):  # a numpy array or scalar
        value = value.tolist()
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) \
        else value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _seed(text: str) -> int:
    return int(text) % (1 << 64)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _merge_params_file(argv: list[str]) -> list[str]:
    """Expand `--params FILE` into flags placed before the explicit ones.

    The file holds `key=value` lines ('#' comments allowed); explicit flags
    win because argparse keeps the last occurrence.
    """
    if "--params" not in argv:
        return argv
    i = argv.index("--params")
    if i + 1 >= len(argv):
        raise ValueError("--params needs a file path")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2:]
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read params file: {exc}") from exc
    injected: list[str] = []
    for line in lines:
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The gpoly parser, built on first use and kept for the process."""
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


def cmd_sample(args) -> Output:
    ps = gaussian_point_set(stream(args.seed, 0), args.n, args.d)
    buf = io.StringIO()
    ps.write_csv(buf)
    provenance = _dump_json({"command": "sample", "n": args.n, "d": args.d,
                             "master_seed": args.seed, "stream_id": 0})
    return Output({"d": args.d, "n": args.n, "seed": args.seed},
                  buf.getvalue(), note=provenance,
                  note_to_stdout=bool(args.out))


def cmd_kfacets(args) -> Output:
    if args.all_k == (args.k is not None):
        raise ValueError("pass exactly one of --k or --all-k")
    theory._check_kfacet_inputs(args.n, args.d, 0 if args.all_k else args.k)
    ks = range(args.n - args.d + 1) if args.all_k else [args.k]
    params = {"mode": args.mode, "n": args.n, "d": args.d,
              "k": None if args.all_k else args.k, "all_k": args.all_k,
              "seed": args.seed,
              "trials": None if args.mode == "exact" else args.trials}
    results = []
    if args.mode == "mc":
        ests = experiments.kfacet_profile_expectation_mc(
            args.n, args.d, args.trials, args.seed)
        results = [{"k": k, "expectation": ests[k].as_dict()} for k in ks]
    elif args.mode == "reduced":
        scale = math.comb(args.n, args.d)
        if scale > sys.float_info.max:  # refused before any draw
            raise ValueError(f"C(n, d) overflows float64 at n {args.n}, "
                             f"d {args.d}")
        ests = experiments.reduced_kfacet_profile_probability_mc(
            args.n, args.d, args.trials, args.seed)
        results = [{"k": k, "probability": ests[k].as_dict(),
                    "implied_expectation": {
                        "mean": ests[k].mean * scale,
                        "std_error": ests[k].std_error * scale}}
                   for k in ks]
    else:
        for k in ks:
            p = theory.kfacet_probability_exact(args.n, args.d, k)
            log_e = theory.kfacet_log_expectation_from_probability(
                args.n, args.d, p)
            if log_e > math.log(sys.float_info.max):
                raise ValueError(f"E e_{k} overflows float64 at n {args.n}, "
                                 f"d {args.d}")
            results.append({"k": k, "probability": p,
                            "expectation": math.exp(log_e),
                            "log_expectation": log_e})
    return Output(params, _dump_json({"command": "kfacets", "params": params,
                                      "results": results}))


def cmd_constants(args) -> Output:
    if args.target == "kfacet":
        if args.alpha is None or args.r is None:
            raise ValueError("kfacet constants need --alpha and --r")
        params = {"alpha": args.alpha, "r": args.r}
        factor = theory.growth_factor(args.alpha, args.r)
        c = theory.c_alpha_r(args.alpha, args.r)
        payload = {"command": "constants", "target": "kfacet",
                   "params": params,
                   "c": c.as_record("c_alpha_r"),
                   "growth_base": factor * c.value}
    else:
        params = {}
        constants = [c.as_record(f"estranged[{c.context['signs']}]")
                     for c in theory.estranged_constants()]
        reduced = theory.estranged_constant_reduced().as_record(
            "estranged_reduced")
        payload = {"command": "constants", "target": "estranged",
                   "constants": constants, "reduced": reduced,
                   "four_c": 4.0 * reduced["value"]}
    return Output(params, _dump_json(payload))


def cmd_estranged(args) -> Output:
    params = {"mode": args.mode, "d": args.d, "trials": args.trials,
              "seed": args.seed}
    if args.mode == "mc":
        est = experiments.estranged_expectation_mc(
            args.d, args.trials, args.seed)
    else:
        est = experiments.pair_facet_probability_mc(
            args.d, args.trials, args.seed)
    root = est.mean ** (1.0 / args.d) if est.mean > 0 else 0.0
    reference = (4.0 if args.mode == "mc" else 1.0) \
        * theory.estranged_constant_reduced().value
    payload = {"command": "estranged", "params": params,
               "estimate": est.as_dict(),
               "root_per_dimension": root,
               "reference_base": reference}
    return Output(params, _dump_json(payload))


def _suite_checks(suite: str, seed: int, trials: int):
    checks = []
    if suite in ("all", "blaschke", "simplex"):
        # each pair of Gaussian reports comes from one run
        gaussian = [experiments.verify_gaussian_simplex(d, trials, seed)
                    for d in range(1, 6 if suite == "blaschke" else 7)]
    if suite in ("all", "blaschke"):
        checks += [blaschke for blaschke, _ in gaussian[:5]]
        for d in (2, 3):
            checks.append(experiments.verify_blaschke(
                d, trials, seed + 1, "uniform-cube"))
    if suite in ("all", "simplex"):
        checks += [volume for _, volume in gaussian]
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
        checks += experiments.verify_kfacet_reductions(
            _REDUCTION_CASES, trials, 10 * trials, seed)
    return checks


def cmd_verify(args) -> Output:
    params = {"suite": args.suite, "seed": args.seed, "trials": args.trials}
    checks = _suite_checks(args.suite, args.seed, args.trials)
    failed = [c.name for c in checks if not c.passed]
    payload = {"command": "verify", "params": params,
               "checks": [c.as_dict() for c in checks],
               "passed": not failed,
               "failed_checks": failed}
    if not failed:
        return Output(params, _dump_json(payload))
    return Output(params, _dump_json(payload), 1,
                  "failed: " + ", ".join(failed) + "\n")


def cmd_growth(args) -> Output:
    if args.d_max < args.d_min:
        raise ValueError("need d-max >= d-min")
    params = {"alpha": args.alpha, "d_min": args.d_min, "d_max": args.d_max,
              "k_mode": args.k_mode, "trials": args.trials, "seed": args.seed}
    rows = experiments.facet_growth_table(
        args.alpha, range(args.d_min, args.d_max + 1), args.trials,
        args.seed, k_mode=args.k_mode)
    buf = io.StringIO()
    experiments.growth_rows_to_csv(rows, buf)
    return Output(params, buf.getvalue())


def _run_record(args, argv: list[str], started_at: str, out: Output) -> str:
    """The runs.jsonl line for one run filed to --out."""
    return json.dumps({
        "command": args.command,
        "argv": argv,
        "params": out.params,
        "master_seed": out.params.get("seed"),
        "started_at": started_at,
        "finished_at": _now(),
        "output_path": os.path.abspath(args.out),
        "output_sha256": hashlib.sha256(out.text.encode()).hexdigest(),
        "artifact_version": __version__,
    }, sort_keys=True) + "\n"


def main(argv=None) -> int:
    """Run one gpoly command and return its exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(_merge_params_file(argv))
        started_at = _now()
        out = args.func(args)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(out.text)
            runs = os.path.join(os.path.dirname(os.path.abspath(args.out)),
                                "runs.jsonl")
            with open(runs, "a") as fh:
                fh.write(_run_record(args, argv, started_at, out))
            sys.stderr.write(f"wrote {args.out}\n")
        else:
            sys.stdout.write(out.text)
        (sys.stdout if out.note_to_stdout else sys.stderr).write(out.note)
        return out.code
    except ValueError as exc:
        sys.stderr.write(f"gpoly: error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"gpoly: I/O error: {exc}\n")
        return 1
    except (experiments.TrialError, QuadratureError) as exc:
        # scipy's quadrature message runs over several lines; keep the first
        first_line = str(exc).partition("\n")[0]
        sys.stderr.write(f"gpoly: error: {first_line}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
