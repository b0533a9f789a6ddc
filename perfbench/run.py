"""Benchmark of the gpoly command, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs a workload of ``workloads.WORKLOADS`` in this process by calling
``gpoly.cli.main`` with the flags a user would type, from the ``src`` tree
next to this directory. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are end to end, with no wrapper installed:

- ``setup_s``: process start until the first command can run (interpreter
  start, ``import gpoly.cli``), once per process, as a CLI user pays it;
- ``wall_s`` / ``cpu_s``: wall and process CPU time of the workload's
  ``once`` commands plus the median over the rounds run in ``--seconds``;
- ``peak_rss_mb``: peak resident set of the process, read before the
  outputs are checked.

With ``--trace 1`` the workload's once-commands and round 0 run three
times: untraced to warm up, with span wrappers installed (see ``spans.py``),
and untraced again. The metrics are the per-layer figures of the traced pass
and ``trace.overhead_s``, its wall time minus that of the last pass. The
spans go to ``perfbench/results``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def _process_age() -> float:
    """Seconds since this process started (Linux /proc, 10 ms ticks)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME) - started)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


def _import_gpoly():
    """Import gpoly.cli from this checkout's src, or fail."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gpoly.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import gpoly from {src}: {exc}")
    if not Path(gpoly.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: imported gpoly from "
                         f"{gpoly.cli.__file__}, not from {src}")
    return gpoly


def _call(gpoly, argv: list[str], op) -> None:
    """Run one gpoly command; the lookup of ``cli.main`` sees any wrapper."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            op.code = gpoly.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        op.code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # the op fails; the run goes on
        op.error = f"{type(exc).__name__}: {exc}"
    op.stdout = out.getvalue()


def _run_group(gpoly, argvs, ops: list) -> tuple[float, float]:
    """Run argvs in order, appending their Ops; return (wall, cpu) seconds."""
    from workloads import Op
    group = [Op(argv) for argv in argvs]
    ops.extend(group)
    wall, cpu = time.perf_counter(), time.process_time()
    for op in group:
        _call(gpoly, op.argv, op)
    return time.perf_counter() - wall, time.process_time() - cpu


def _timed(gpoly, wl, seed: int, seconds: float, ops: list) -> dict:
    begin = time.perf_counter()
    once_wall, once_cpu = _run_group(gpoly, wl.once(seed), ops)
    walls, cpus = [], []
    for j in range(wl.max_rounds):
        wall, cpu = _run_group(gpoly, wl.round(seed, j), ops)
        walls.append(wall)
        cpus.append(cpu)
        if time.perf_counter() - begin + wall > seconds:
            break  # the next round would overrun the run
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"rounds: {len(walls)}, once wall s: {once_wall:.3f}, round wall s: "
          f"{' '.join(f'{w:.3f}' for w in walls)}, round cpu s: "
          f"{' '.join(f'{c:.3f}' for c in cpus)}")
    return {"wall_s": (once_wall + statistics.median(walls), "s"),
            "cpu_s": (once_cpu + statistics.median(cpus), "s"),
            "peak_rss_mb": (rss_mb, "MB")}


def _traced(gpoly, wl, seed: int, ops: list, out_path: Path) -> dict:
    import layers
    import spans
    argvs = wl.once(seed) + wl.round(seed, 0)
    # The first pass pays one-off costs (lazy imports, first LAPACK calls);
    # tracing the second and timing a third compares two warm passes.
    _run_group(gpoly, argvs, ops)
    with spans.Tracer(layers.targets(gpoly)) as tracer:
        traced_wall, _ = _run_group(gpoly, argvs, ops)
    plain_wall, _ = _run_group(gpoly, argvs, ops)
    metrics = layers.metrics(tracer)
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    tracer.write(out_path)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    # What a user gets by default: the CLI's pool sized to the usable CPUs.
    os.environ.setdefault("GPOLY_WORKERS", str(len(os.sched_getaffinity(0))))

    gpoly = _import_gpoly()
    # Taken before the benchmark's own modules load, so only interpreter
    # start and ``import gpoly.cli`` count.
    setup_s = _process_age()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]

    ops: list = []
    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        metrics = _traced(gpoly, wl, args.seed, ops,
                          RESULTS / f"spans-{wl.name}.npz")
    else:
        metrics = _timed(gpoly, wl, args.seed, args.seconds, ops)
        metrics["setup_s"] = (setup_s, "s")

    ran = [op for op in ops if op.error is None and op.code in wl.ok_codes]
    for op in ran:
        try:
            op.problem = wl.check(op.stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            op.problem = f"unreadable output: {exc!r}"
    failed = [op for op in ops if op.error is not None
              or op.code not in wl.ok_codes or op.problem]
    for op in failed:
        print(f"FAILED {' '.join(op.argv)}: "
              f"{op.error or op.problem or f'exit code {op.code}'}")
    verify_misses = sum(1 for op in ran if op.code == 1)
    print(f"workers: {os.environ['GPOLY_WORKERS']}, ops with the program's "
          f"own 3-sigma miss (exit 1): {verify_misses}")
    result = {"correct": not any(op.problem for op in ran),
              "attempted": len(ops), "failed": len(failed),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in sorted(metrics.items())}}
    line = json.dumps(result)
    (RESULTS / f"{wl.name}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
