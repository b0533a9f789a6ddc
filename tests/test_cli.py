import contextlib
import dataclasses
import hashlib
import io
import json
import math
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gpoly import cli, experiments, theory
from gpoly.mathcore import QuadratureError
from gpoly.geometry import kfacet_profile
from gpoly.sampling import PointSet, RngStream, gaussian_point_set, stream


def run_cli(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse/validation exits
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue(), err.getvalue()


# ------------------------------------------------------------------- sample

def test_sample_stdout_deterministic():
    code1, out1, _ = run_cli(["sample", "--d", "3", "--n", "10", "--seed", "7"])
    code2, out2, _ = run_cli(["sample", "--d", "3", "--n", "10", "--seed", "7"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "x1,x2,x3"
    assert len(out1.splitlines()) == 11


def test_sample_round_trip_preserves_profile(tmp_path):
    out = tmp_path / "pts.csv"
    code, stdout, _ = run_cli(["sample", "--d", "2", "--n", "8",
                               "--seed", "3", "--out", str(out)])
    assert code == 0
    prov = json.loads(stdout)
    assert prov["master_seed"] == 3 and prov["stream_id"] == 0
    loaded = PointSet.from_coords(np.loadtxt(out, delimiter=",", skiprows=1))
    direct = gaussian_point_set(stream(3, 0), 8, 2)
    assert np.array_equal(loaded.coords, direct.coords)
    assert np.array_equal(kfacet_profile(loaded).e, kfacet_profile(direct).e)


def test_sample_writes_run_record(tmp_path):
    out = tmp_path / "pts.csv"
    run_cli(["sample", "--d", "2", "--n", "4", "--seed", "1",
             "--out", str(out)])
    run_cli(["sample", "--d", "2", "--n", "4", "--seed", "2",
             "--out", str(out)])
    records = [json.loads(line)
               for line in (tmp_path / "runs.jsonl").read_text().splitlines()]
    assert len(records) == 2  # append-only
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert records[-1]["output_sha256"] == digest
    assert records[-1]["command"] == "sample"
    assert records[-1]["artifact_version"]


def test_run_record_names_the_argv_it_ran(tmp_path):
    params = tmp_path / "run.params"
    params.write_text("d=1\nn=3\n")
    argvs = [["kfacets", "exact", "--d", "1", "--n", "3", "--k", "0",
              "--out", str(tmp_path / "o.json")],
             ["kfacets", "exact", "--params", str(params), "--k", "0",
              "--out", str(tmp_path / "p.json")]]
    for argv in argvs:
        assert run_cli(argv)[0] == 0
    records = [json.loads(line)
               for line in (tmp_path / "runs.jsonl").read_text().splitlines()]
    # the argv main was given, before --params expansion
    assert [r["argv"] for r in records] == argvs
    assert records[1]["params"]["n"] == 3


def test_sample_usage_error_exit_2():
    code, _, _ = run_cli(["sample", "--d", "0", "--n", "3"])
    assert code == 2


# ------------------------------------------------------------------ kfacets

def test_kfacets_exact_line():
    code, out, _ = run_cli(["kfacets", "exact", "--d", "1", "--n", "3",
                            "--k", "0"])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["results"][0]["expectation"] - 2.0) <= 1e-9


def test_kfacets_exact_below_the_float64_limit():
    # C(1200, 600) is past float64, but E e_0 = exp(532.1) is not
    code, out, err = run_cli(["kfacets", "exact", "--n", "1200", "--d", "600",
                              "--k", "0"])
    assert code == 0 and err == ""
    result = json.loads(out)["results"][0]
    assert abs(result["log_expectation"] - 532.1) <= 0.05
    assert result["expectation"] == math.exp(result["log_expectation"])


def test_kfacets_mc_all_k_symmetry():
    code, out, _ = run_cli(["kfacets", "mc", "--d", "2", "--n", "5",
                            "--all-k", "--trials", "2000", "--seed", "1"])
    assert code == 0
    means = [r["expectation"]["mean"] for r in json.loads(out)["results"]]
    assert means == means[::-1]


def test_kfacets_reduced_ci_overlaps_exact():
    code, out, _ = run_cli(["kfacets", "reduced", "--d", "4", "--n", "8",
                            "--k", "2", "--trials", "100000", "--seed", "2"])
    assert code == 0
    rec = json.loads(out)["results"][0]
    from gpoly.theory import kfacet_probability_exact
    exact = kfacet_probability_exact(8, 4, 2)
    lo, hi = rec["probability"]["ci95"]
    assert lo <= exact <= hi


def test_kfacets_reduced_all_k_draws_each_row_once(monkeypatch):
    rows = []
    plain = experiments.RngStream.standard_normal

    def draw(self, size=None, out=None):
        rows.append(self.stream_id)
        return plain(self, size, out)

    monkeypatch.setattr(experiments.RngStream, "standard_normal", draw)
    code, out, _ = run_cli(["kfacets", "reduced", "--d", "2", "--n", "6",
                            "--all-k", "--trials", "1000", "--seed", "4"])
    assert code == 0
    assert len(json.loads(out)["results"]) == 5
    assert rows == list(range(1000))


def test_kfacets_requires_k_choice():
    code, _, _ = run_cli(["kfacets", "exact", "--d", "1", "--n", "3"])
    assert code == 2
    code, _, _ = run_cli(["kfacets", "exact", "--d", "1", "--n", "3",
                          "--k", "0", "--all-k"])
    assert code == 2
    code, _, _ = run_cli(["kfacets", "exact", "--d", "1", "--n", "3",
                          "--k", "7"])
    assert code == 2


# ---------------------------------------------------------------- constants

def test_constants_kfacet_base_four():
    code, out, _ = run_cli(["constants", "kfacet", "--alpha", "2",
                            "--r", "0.5"])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["growth_base"] - 4.0) <= 1e-9
    assert set(payload["c"]) == {"name", "parameters", "value", "argmax",
                                 "grid_resolution"}


def test_constants_estranged_payload():
    code, out, _ = run_cli(["constants", "estranged"])
    assert code == 0
    payload = json.loads(out)
    by_signs = {c["parameters"]["signs"]: c["value"]
                for c in payload["constants"]}
    assert abs(by_signs["--"] - 0.4424) <= 5e-4
    assert abs(by_signs["+-"] - 0.355) <= 1e-3
    assert abs(by_signs["++"] - 0.25) <= 1e-9
    assert abs(payload["reduced"]["value"] - by_signs["--"]) <= 1e-6
    assert 1.7670 <= payload["four_c"] <= 1.7722


def test_constants_alpha_validation():
    code, _, _ = run_cli(["constants", "kfacet", "--alpha", "1.0", "--r", "0"])
    assert code == 2
    code, _, _ = run_cli(["constants", "kfacet", "--alpha", "2"])
    assert code == 2


# ---------------------------------------------------------------- estranged

def test_estranged_pairprob_d1():
    code, out, _ = run_cli(["estranged", "pairprob", "--d", "1",
                            "--trials", "1000", "--seed", "5"])
    assert code == 0
    assert json.loads(out)["estimate"]["mean"] == 1.0


def test_estranged_consistency_via_cli():
    code, out_mc, _ = run_cli(["estranged", "mc", "--d", "2",
                               "--trials", "20000", "--seed", "3"])
    assert code == 0
    code, out_pp, _ = run_cli(["estranged", "pairprob", "--d", "2",
                               "--trials", "20000", "--seed", "4"])
    assert code == 0
    mc_est = json.loads(out_mc)["estimate"]
    pp_est = json.loads(out_pp)["estimate"]
    se = (mc_est["std_error"] ** 2 + (3 * pp_est["std_error"]) ** 2) ** 0.5
    assert abs(mc_est["mean"] - 3 * pp_est["mean"]) <= 3 * se


def test_estranged_cap_exit_2():
    code, _, err = run_cli(["estranged", "mc", "--d", "9", "--trials", "10",
                            "--seed", "1"])
    assert code == 2
    assert "cap" in err


# ------------------------------------------------------------------- verify

def test_verify_simplex_suite_passes_and_repeats():
    args = ["verify", "--suite", "simplex", "--seed", "11",
            "--trials", "4000"]
    code1, out1, _ = run_cli(args)
    code2, out2, _ = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical reruns
    payload = json.loads(out1)
    assert payload["passed"] and not payload["failed_checks"]
    assert all(c["z"] is not None for c in payload["checks"])


def test_verify_lp_suite():
    code, out, _ = run_cli(["verify", "--suite", "lp"])
    assert code == 0
    values = json.loads(out)["checks"][0]["details"]["values"]
    assert values == sorted(values)
    assert abs(values[-1] - 0.3989422804) <= 0.01


def test_verify_reduction_suite_token():
    code, out, _ = run_cli(["verify", "--suite", "thm32", "--seed", "3",
                            "--trials", "2000"])
    assert code == 0
    checks = json.loads(out)["checks"]
    assert len(checks) == 4
    assert all(c["name"].startswith("kfacet_reduction") for c in checks)


def test_verify_exit_1_on_a_zero_standard_error():
    # at 10 trials a full leg can hit the same count in every trial; its
    # se = 0 gives z = inf, a failed check, not a ZeroDivisionError
    code, out, err = run_cli(["verify", "--suite", "thm32", "--seed", "18",
                              "--trials", "10"])
    assert code == 1
    payload = json.loads(out)
    assert len(payload["checks"]) == 4
    assert all(c["name"].startswith("kfacet_reduction")
               for c in payload["checks"])
    assert err == "failed: " + ", ".join(payload["failed_checks"]) + "\n"


def test_verify_exit_1_on_failure():
    # d=1 simplex check at this seed/trials sits just outside 3 sigma
    code, out, err = run_cli(["verify", "--suite", "simplex", "--seed", "13",
                              "--trials", "30000"])
    assert code == 1
    payload = json.loads(out)
    assert not payload["passed"]
    assert "simplex_volume[d=1]" in payload["failed_checks"]
    assert "simplex_volume[d=1]" in err


def test_verify_exit_1_on_a_failed_check(monkeypatch):
    real = experiments.verify_lp_limit
    monkeypatch.setattr(experiments, "verify_lp_limit",
                        lambda: dataclasses.replace(real(), passed=False))
    code, out, err = run_cli(["verify", "--suite", "lp"])
    assert code == 1
    assert json.loads(out)["failed_checks"] == ["lp_limit"]
    assert err == "failed: lp_limit\n"


def test_verify_draws_each_shared_stream_once(monkeypatch):
    # the Gaussian Blaschke and mean-volume checks share one run per d, the
    # thm32 full legs one run per (n, d) and the reduced legs one per n - d
    # (the driver keys one stream per row through RngStream.fill_rows)
    plain = RngStream.fill_rows
    rows = []

    def counting(self, first, block, draw):
        rows.append(len(block))
        return plain(self, first, block, draw)

    monkeypatch.setattr(RngStream, "fill_rows", counting)
    code, _, _ = run_cli(["verify", "--suite", "all", "--trials", "4096",
                          "--seed", "7"])
    assert code == 0
    assert sum(rows) == 170_390


def test_driver_does_not_reset_per_trial(monkeypatch):
    # the driver rewinds each sub-block inside fill_rows: a reset per trial
    # is the Python floor that fill_rows exists to avoid
    def refuse(self, master_seed, stream_id):
        raise AssertionError("reset called during mc_run")

    monkeypatch.setattr(RngStream, "reset", refuse)
    est = experiments.mc_run(lambda s, row: s.standard_normal(out=row),
                             experiments.CHUNK + 3, 5,
                             lambda b: b.sum(axis=1), row_shape=(2,))
    assert est.trials == experiments.CHUNK + 3


def test_verify_statistics_pinned():
    # captured from the per-trial Welford loop; the batched routine draws
    # the same numbers and may differ from it only by rounding
    want = json.loads((Path(__file__).parent / "fixtures"
                       / "verify_all_seed7_trials4096.json").read_text())
    code, out, _ = run_cli(want["argv"])
    got = json.loads(out)
    assert code == 0 and got["passed"] == want["passed"]
    assert [c["name"] for c in got["checks"]] == \
        [c["name"] for c in want["checks"]]
    for g, w in zip(got["checks"], want["checks"]):
        assert g["passed"] == w["passed"], w["name"]
        zs = dict(w["zs"], z=w["z"])
        for key, z in zs.items():
            z_got = g["z"] if key == "z" else g["details"][key]
            assert (z is None and z_got is None) or abs(z_got - z) <= 1e-9, \
                (w["name"], key)
        for key, est in w["estimates"].items():
            est_got = g["estimate"] if key == "estimate" else g["details"][key]
            for stat, value in est.items():
                assert abs(est_got[stat] - value) <= 1e-12 * abs(value), \
                    (w["name"], key, stat)


# ------------------------------------------------------------------- growth

def test_growth_csv_shape():
    code, out, _ = run_cli(["growth", "--alpha", "2", "--d-min", "2",
                            "--d-max", "4", "--trials", "500", "--seed", "6"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d,n,mean,se,root,base"
    assert len(lines) == 4


# ------------------------------------------------- determinism and plumbing

def test_workers_do_not_change_output_bytes():
    outs = []
    for workers in ("1", "8"):
        code, out, _ = run_cli(["kfacets", "mc", "--d", "2", "--n", "5",
                                "--k", "1", "--trials", "4000", "--seed", "9",
                                "--workers", workers])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_gpoly_workers_env(monkeypatch):
    monkeypatch.setenv("GPOLY_WORKERS", "2")
    code, out, _ = run_cli(["estranged", "pairprob", "--d", "2",
                            "--trials", "2000", "--seed", "8"])
    monkeypatch.setenv("GPOLY_WORKERS", "5")
    code2, out2, _ = run_cli(["estranged", "pairprob", "--d", "2",
                              "--trials", "2000", "--seed", "8"])
    assert code == code2 == 0
    assert out == out2


def test_kfacets_exact_one_quadrature_per_k(monkeypatch):
    plain = theory.integrate_1d
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return plain(*args, **kwargs)

    monkeypatch.setattr(theory, "integrate_1d", counting)
    code, out, _ = run_cli(["kfacets", "exact", "--n", "30", "--d", "10",
                            "--all-k"])
    monkeypatch.undo()
    assert code == 0
    assert len(calls) == 21
    params = {"mode": "exact", "n": 30, "d": 10, "k": None, "all_k": True,
              "seed": 0, "trials": None}
    results = [{"k": k,
                "probability": theory.kfacet_probability_exact(30, 10, k),
                "expectation": theory.kfacet_expectation_exact(30, 10, k),
                "log_expectation": theory.kfacet_log_expectation_exact(
                    30, 10, k)}
               for k in range(21)]
    assert out == cli._dump_json({"command": "kfacets", "params": params,
                                  "results": results})


PARENT_STDOUT = json.loads((Path(__file__).parent / "fixtures"
                            / "cli_stdout.json").read_text())


@pytest.mark.parametrize("command", sorted(PARENT_STDOUT))
def test_stdout_matches_fixture(command):
    # captured when the enumeration ran per trial in the draw step and
    # growth_base_kfacet re-ran the c_alpha_r maximizer; the verify entries
    # when each check ran its own Monte Carlo experiment; the `constants
    # estranged`, `--alpha 1e6` and `--n 64 --d 43` entries when c_alpha_r
    # scanned its grid one point at a time and maximize_box ran one scipy
    # Nelder-Mead per start
    code, out, _ = run_cli(command.split())
    assert code == 0
    assert out == PARENT_STDOUT[command]


def _refuse(token):
    raise ValueError(f"{token} is not strict JSON")


def test_stdout_is_strict_json():
    # a zero standard error gives an infinite z, which prints as null, and
    # no fixture command prints an Infinity or NaN token
    code, out, _ = run_cli(["verify", "--suite", "thm32", "--trials", "10",
                            "--seed", "18"])
    assert code == 1
    checks = json.loads(out, parse_constant=_refuse)["checks"]
    assert None in [c["z"] for c in checks]
    assert None in [c["details"]["full_vs_exact"] for c in checks]
    for command, text in PARENT_STDOUT.items():
        if not command.startswith("growth"):  # CSV
            json.loads(text, parse_constant=_refuse)


def test_constants_kfacet_c_alpha_r_calls(monkeypatch):
    # the growth base reuses c
    plain = theory.c_alpha_r
    seen = []

    def counting(*args, **kwargs):
        seen.append(args)
        return plain(*args, **kwargs)

    monkeypatch.setattr(theory, "c_alpha_r", counting)
    command = "constants kfacet --alpha 2.5 --r 0.3"
    code, out, _ = run_cli(command.split())
    assert code == 0 and len(seen) == 1
    assert out == PARENT_STDOUT[command]


def test_constants_kfacet_alt_exponents_is_gone():
    code, out, _ = run_cli(["constants", "kfacet", "--alpha", "2", "--r",
                            "0.5", "--alt-exponents"])
    assert code == 2 and out == ""


@pytest.mark.parametrize("argv, message", [
    ("kfacets exact --d 1 --n 3 --k 0 --params", "--params needs a file path"),
    ("estranged mc --d 9 --trials 10 --seed 1", "exceeds the estranged cap"),
    ("kfacets mc --n 30 --d 10 --k 0", "exceeds the subset cap"),
    ("constants kfacet --r 0.5", "kfacet constants need --alpha and --r"),
    ("kfacets exact --d 3 --n 2 --all-k", "need d >= 1 and n >= d + 1"),
    ("kfacets reduced --d 3 --n 2 --all-k --trials 100",
     "need d >= 1 and n >= d + 1"),
    ("kfacets exact --d 2 --n 5 --k 4", "need 0 <= k <= n - d"),
    ("constants kfacet --alpha 0.5 --r 0.5", "need alpha > 1, got 0.5"),
    ("growth --alpha 0.5", "need alpha > 1, got 0.5"),
    ("constants kfacet --alpha nan --r 0.5", "need alpha > 1, got nan"),
    ("constants kfacet --alpha inf --r 0.5", "need a finite alpha, got inf"),
    ("growth --alpha nan", "got alpha nan"),
    ("growth --alpha inf", "got alpha inf"),
    ("growth --alpha 1e308", "got alpha 1e+308"),
    # the growth base overflows float64 before any maximizer runs
    ("constants kfacet --alpha 1100 --r 0.5",
     "overflows float64 at alpha 1100"),
    ("constants kfacet --alpha 1e300 --r 0.5",
     "overflows float64 at alpha 1e+300"),
    ("constants kfacet --alpha 1e308 --r 0.5",
     "overflows float64 at alpha 1e+308"),
    ("growth --alpha 1100 --k-mode middle --d-min 2 --d-max 2",
     "overflows float64 at alpha 1100"),
    # the growth factor is finite, but c_alpha_r underflows to 0
    ("constants kfacet --alpha 1e307 --r 0",
     "c_alpha_r is 0.0 at alpha 1e+307"),
    # counts past float64: exact after its quadrature, reduced before a draw
    ("kfacets exact --n 1200 --d 600 --k 300",
     "E e_300 overflows float64 at n 1200, d 600"),
    ("kfacets exact --n 1200 --d 600 --all-k",
     "overflows float64 at n 1200, d 600"),
    ("kfacets reduced --n 1200 --d 600 --k 0 --trials 2",
     "C(n, d) overflows float64 at n 1200, d 600"),
    # the scale 2 C(n-d, k) sqrt(d / 2 pi) of p_k, before its quadrature
    ("kfacets exact --n 1129 --d 100 --k 514",
     "the scale of p_514 overflows float64 at n 1129, d 100"),
    ("kfacets exact --n 1101 --d 1 --k 550",
     "the scale of p_550 overflows float64 at n 1101, d 1"),
    ("growth --alpha 2 --d-min 3 --d-max 2", "need d-max >= d-min"),
    ("kfacets exact --params no-such.params", "cannot read params file"),
])
def test_usage_errors_return_2_with_one_message(argv, message, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv.split()) == 2  # returned, not raised
    assert not caught  # no RuntimeWarning line on stderr either
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("gpoly: error: ") and err.count("\n") == 1
    assert message in err


def _trial_error(*args):
    raise experiments.TrialError(62, ValueError("point 9 on the band"))


def _quadrature_error(*args):
    raise QuadratureError("subdivision cap reached.\n  Try splitting.",
                          value=0.0, abs_error_estimate=1.0, evaluations=21)


@pytest.mark.parametrize("module, name, fail, argv, message", [
    (experiments, "estranged_expectation_mc", _trial_error,
     "estranged mc --d 7 --trials 200 --seed 3",
     "trial 62 failed: point 9 on the band"),
    (theory, "kfacet_probability_exact", _quadrature_error,
     "kfacets exact --d 2 --n 5 --k 1", "subdivision cap reached."),
])
def test_failed_run_returns_3_with_one_message(monkeypatch, capsys, module,
                                               name, fail, argv, message):
    monkeypatch.setattr(module, name, fail)
    assert cli.main(argv.split()) == 3  # returned, not raised
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"gpoly: error: {message}\n"


def test_kfacets_exact_refuses_a_probability_that_underflowed(capsys):
    # every quadrature node misses the narrow peak of the integrand, so the
    # quadrature returns 0; the true p_216 is about 0.00182
    assert cli.main("kfacets exact --n 1101 --d 1 --k 216".split()) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("gpoly: error: k-facet probability 0.0 is not in")
    assert err.count("\n") == 1


def test_out_under_a_missing_directory_is_an_io_error(tmp_path):
    code, out, err = run_cli(["kfacets", "exact", "--d", "1", "--n", "3",
                              "--k", "0", "--out",
                              str(tmp_path / "missing" / "o.json")])
    assert code == 1 and out == ""
    assert err.startswith("gpoly: I/O error: ") and err.count("\n") == 1


def test_params_file_merging(tmp_path):
    params = tmp_path / "run.params"
    params.write_text("d=1\nn=3\nk=0\n# a comment\ntrials=500\n")
    code, from_file, _ = run_cli(["kfacets", "exact", "--params", str(params)])
    assert code == 0
    assert json.loads(from_file)["params"]["n"] == 3
    # explicit flags win over the file
    code, overridden, _ = run_cli(["kfacets", "exact", "--params", str(params),
                                   "--n", "4"])
    assert code == 0
    assert json.loads(overridden)["params"]["n"] == 4
    # key=true is a bare flag, and a key=false line is left out
    params.write_text("d=1\nn=3\nall-k=true\n")
    code, out, _ = run_cli(["kfacets", "exact", "--params", str(params)])
    assert code == 0 and json.loads(out)["params"]["all_k"] is True
    params.write_text("d=1\nn=3\nk=0\nall-k=false\n")
    code, out, _ = run_cli(["kfacets", "exact", "--params", str(params)])
    assert code == 0 and json.loads(out)["params"]["all_k"] is False


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gpoly.cli", "kfacets", "exact",
         "--d", "1", "--n", "3", "--k", "0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"][0]["k"] == 0
    proc = subprocess.run([sys.executable, "-m", "gpoly.cli", "sample",
                           "--d", "0", "--n", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 2


# ------------------------------------------------------------------- README

def _readme_commands():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    return [line for line in block.split("```", 1)[0].splitlines()
            if line.startswith("gpoly ")]


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_cli_commands_parse(line, capsys):
    # parsed only, not run: a flag or value the parser rejects fails here
    argv = shlex.split(line, comments=True)[1:]
    try:
        cli._build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"the parser rejects {line!r}: {capsys.readouterr().err}")


def test_readme_cli_block_shows_every_command():
    shown = {line.split()[1] for line in _readme_commands()}
    assert shown == {"sample", "kfacets", "constants", "estranged", "verify",
                     "growth"}
