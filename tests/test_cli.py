import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oscillax.split as split
import oscillax.sweep as sweep
from oscillax import cli
from oscillax.norms import InsufficientCoverage
from oscillax.oscillatory import (SymbolParams, dispersive_field,
                                  gaussian_free_evolution)
from oscillax.profiles import gaussian


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "oscillax.cli"] + args,
                          capture_output=True, text=True, **kw)


def test_eval_matches_free_propagator(tmp_path):
    res = run_cli(["eval", "--out-dir", str(tmp_path), "--family", "gaussian",
                   "--a", "2", "--n", "2", "--r", "0", "--t", "0.3"])
    assert res.returncode == 0
    fields = dict(part.split("=") for part in res.stdout.split())
    ref = gaussian_free_evolution(1.0, SymbolParams(a=2.0, n=2), 0.0, 0.3)
    assert float(fields["re"]) == pytest.approx(ref.real, rel=1e-10)
    assert float(fields["im"]) == pytest.approx(ref.imag, rel=1e-10)


def test_eval_grid_csv_shape(tmp_path):
    res = run_cli(["eval-grid", "--out-dir", str(tmp_path), "--family",
                   "annular", "--N", "2", "--a", "0.5", "--n", "2",
                   "--r-grid", "0:2:3", "--t-grid=-0.5:0.5:3"])
    assert res.returncode == 0
    lines = (tmp_path / "eval_grid.csv").read_text().strip().splitlines()
    assert lines[0] == "r,t,re,im,abs"
    assert len(lines) == 1 + 3 * 3


def test_eval_grid_abs_rounds_like_abs_of_each_value(tmp_path):
    # abs() of a complex rounds through hypot; np.abs can differ in the last
    # bit, which shows in about 2% of the printed values here.
    rc = cli.main(["eval-grid", "--out-dir", str(tmp_path), "--family",
                   "gaussian", "--a", "2", "--n", "2", "--r-grid", "0:3:41",
                   "--t-grid=-0.9:0.9:101"])
    assert rc == 0
    lines = (tmp_path / "eval_grid.csv").read_text().splitlines()[1:]
    vals = dispersive_field(gaussian(1.0), SymbolParams(a=2.0, n=2),
                            np.linspace(0.0, 3.0, 41),
                            np.linspace(-0.9, 0.9, 101)).ravel()
    assert len(lines) == vals.size
    for line, v in zip(lines, vals):
        assert line.split(",")[2:] == [sweep.format_float(x)
                                       for x in (v.real, v.imag, abs(v))]


def test_transform_gaussian_total_mass(tmp_path):
    res = run_cli(["transform", "--out-dir", str(tmp_path), "--family",
                   "gaussian", "--n", "2", "--rho-grid", "0:2:5"])
    assert res.returncode == 0
    lines = (tmp_path / "transform.csv").read_text().strip().splitlines()
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(2.0 * math.pi, rel=1e-10)


def test_sweep_row_count_and_exponents(tmp_path):
    res = run_cli(["sweep", "--out-dir", str(tmp_path), "--a", "0.5", "--n", "2",
                   "--s-list", "0.0625,0.375", "--N-list", "2,4,8,16",
                   "--range", "local", "--modulated", "--y-count", "4"])
    assert res.returncode == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 4
    summary = json.loads((tmp_path / "sweep_summary.json").read_text())
    assert len(summary["exponents"]) == 2
    assert summary["version"]
    assert summary["converged"] is True
    assert all(c["t_samples"] > 0 and 0.0 < c["t_bound"] <= 2.5e-3
               for c in summary["cells"])
    assert all(c["rho_points"] > 0 for c in summary["cells"])


def test_sweep_summary_round_trips(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    base = ["sweep", "--a", "0.5", "--n", "2", "--s-list", "0.0625",
            "--N-list", "2,4", "--range", "local", "--modulated",
            "--y-count", "4"]
    assert run_cli(base + ["--out-dir", str(out1)]).returncode == 0
    summary = json.loads((out1 / "sweep_summary.json").read_text())
    cfg = summary["config"]
    rebuilt = ["sweep", "--out-dir", str(out2),
               "--a", str(cfg["a"]), "--n", str(cfg["n"]),
               "--s-list", cfg["s_list"], "--N-list", cfg["N_list"],
               "--range", cfg["range"], "--y-count", str(cfg["y_count"])]
    if cfg["modulated"]:
        rebuilt.append("--modulated")
    assert run_cli(rebuilt).returncode == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_config_file_defaults_and_flag_override(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("a=0.5\nn=2\ns_list=0.0625\nN_list=2,4\n"
                    "range=local\nmodulated=true\ny_count=4\n")
    res = run_cli(["sweep", "--config", str(conf), "--out-dir", str(tmp_path)])
    assert res.returncode == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2
    assert lines[1].split(",")[5] == "local"


def test_bessel_check_half_integer_remainder(tmp_path):
    res = run_cli(["bessel-check", "--out-dir", str(tmp_path),
                   "--lambda", "0.5", "--rho-min", "2", "--rho-max", "4096",
                   "--count", "512"])
    assert res.returncode == 0
    lines = (tmp_path / "bessel_check.csv").read_text().strip().splitlines()
    assert lines[0] == "rho,j,main,remainder,scaled_remainder"
    scaled = np.array([float(l.split(",")[4]) for l in lines[1:]])
    assert scaled.max() <= 1e-10


def test_oracle_compare_csv(tmp_path):
    res = run_cli(["oracle-compare", "--out-dir", str(tmp_path), "--family",
                   "bump", "--center", "1", "--width", "0.7", "--n", "2",
                   "--rho-grid", "0.5:4:3"])
    assert res.returncode == 0
    lines = (tmp_path / "oracle_compare.csv").read_text().strip().splitlines()
    rel = np.array([float(l.split(",")[3]) for l in lines[1:]])
    assert rel.max() <= 1e-6


def test_kernel_summary_carries_sup_certificate(tmp_path):
    rc = cli.main(["kernel", "--out-dir", str(tmp_path), "--m", "4", "--mu", "4",
                   "--a", "0.5", "--s", "0.2"])
    assert rc == 0
    summary = json.loads((tmp_path / "kernel_summary.json").read_text())
    assert summary["t_degree"] == 12
    assert 0.0 < summary["l1_bound"] <= 1e-4 * summary["l1_estimate"]


def test_kernel_csv_ignores_blas_threads(tmp_path):
    # kernel samples in one worker with pinned BLAS, so the caller's BLAS
    # thread count does not reach kernel.csv.
    csvs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        res = run_cli(["kernel", "--out-dir", str(out), "--m", "4", "--mu", "4",
                       "--a", "0.5", "--s", "0.2"],
                      env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
        assert res.returncode == 0, res.stderr
        csvs.append((out / "kernel.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_usage_error_exit_code(tmp_path):
    res = run_cli(["sweep", "--out-dir", str(tmp_path), "--a", "2", "--n", "2",
                   "--s-list", "0.25"])
    assert res.returncode == 2


def test_certification_failure_exit_code(tmp_path, monkeypatch):
    def uncertified(cfg, workers=0):
        raise InsufficientCoverage("radial tail carries 2.00e-03 of the norm")

    monkeypatch.setattr(cli, "run_sweep", uncertified)
    rc = cli.main(["sweep", "--out-dir", str(tmp_path), "--a", "2", "--n", "2",
                   "--s-list", "0.25", "--N-list", "2"])
    assert rc == 4


def test_missing_required_reports_usage(tmp_path):
    res = run_cli(["eval", "--out-dir", str(tmp_path), "--family", "gaussian",
                   "--a", "2", "--n", "2", "--r", "0"])
    assert res.returncode == 2
    assert "--t" in res.stderr


def test_split_check_strict_flags_split_deviation(tmp_path, monkeypatch):
    original = split.selector_parts

    def perturbed(f, sel, p):
        parts = original(f, sel, p)
        parts["main"] = parts["main"] + 1e-6
        return parts

    monkeypatch.setattr(split, "selector_parts", perturbed)
    rc = cli.main(["split-check", "--out-dir", str(tmp_path), "--a", "0.5",
                   "--n", "2", "--s", "0.2", "--pairs", "1", "--strict"])
    assert rc == 3
    summary = json.loads((tmp_path / "split_check_summary.json").read_text())
    assert summary["bound_satisfied"] is True
    assert summary["split_sum_deviation"] > 1e-9


@pytest.mark.parametrize("a, s", [("0.5", "0.2"), ("2", "0.6")])
def test_split_check_strict_passes_at_half_order(tmp_path, a, s):
    # n = 3: the remainder bound is exactly 0, and so is the remainder.
    rc = cli.main(["split-check", "--out-dir", str(tmp_path), "--a", a,
                   "--n", "3", "--s", s, "--pairs", "2", "--strict"])
    assert rc == 0
    summary = json.loads((tmp_path / "split_check_summary.json").read_text())
    assert summary["remainder_bound"] == summary["remainder_max_ratio"] == 0.0


_SWEEP_ARGS = ["sweep", "--a", "0.5", "--n", "2", "--s-list", "0.0625",
               "--N-list", "2", "--range", "local"]


@pytest.mark.parametrize("modulated", [False, True], ids=["plain", "modulated"])
def test_strict_sweep_exits_3_when_unconverged(tmp_path, monkeypatch,
                                               no_time_refinement, modulated):
    # The CLI always sweeps in a spawn pool, whose workers would not see the
    # capped field; run the sweep in-process instead.
    monkeypatch.setattr(cli, "run_sweep",
                        lambda cfg, workers=0: sweep.run_sweep(cfg, workers=0))
    extra = ["--modulated", "--y-count", "2"] if modulated else []
    rc = cli.main(_SWEEP_ARGS + extra + ["--out-dir", str(tmp_path), "--strict"])
    assert rc == 3


@pytest.mark.parametrize("config_text", ["y_count=abc\n", "y_count 4\n"],
                         ids=["bad-value", "no-equals"])
def test_bad_config_file_is_usage_error(tmp_path, config_text):
    conf = tmp_path / "run.conf"
    conf.write_text(config_text)
    res = run_cli(_SWEEP_ARGS + ["--config", str(conf), "--out-dir", str(tmp_path)])
    assert res.returncode == 2
    assert "Traceback" not in res.stderr


def test_missing_config_file_is_usage_error(tmp_path):
    res = run_cli(_SWEEP_ARGS + ["--config", str(tmp_path / "absent.conf"),
                                 "--out-dir", str(tmp_path)])
    assert res.returncode == 2
    assert "Traceback" not in res.stderr


def test_non_integer_workers_is_usage_error(tmp_path):
    import os
    res = run_cli(_SWEEP_ARGS + ["--out-dir", str(tmp_path)],
                  env={**os.environ, "OSCILLAX_WORKERS": "two"})
    assert res.returncode == 2
    assert "OSCILLAX_WORKERS" in res.stderr


@pytest.mark.parametrize("y_count", ["0", "-3"])
def test_empty_modulation_grid_is_usage_error(tmp_path, y_count):
    res = run_cli(_SWEEP_ARGS + ["--modulated", "--y-count", y_count,
                                 "--out-dir", str(tmp_path)])
    assert res.returncode == 2
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("argv, option", [
    (["split-check", "--a", "0.5", "--n", "2", "--s", "0.2", "--pairs", "0",
      "--strict"], "--pairs"),
    (["split-check", "--a", "0.5", "--n", "2", "--s", "0.2", "--pairs", "-3"],
     "--pairs"),
    (["bessel-check", "--lambda", "0.5", "--rho-min", "2", "--rho-max", "64",
      "--count", "0"], "--count"),
], ids=["split-check-pairs-0", "split-check-pairs-negative", "bessel-check-count-0"])
def test_empty_check_is_usage_error(tmp_path, argv, option):
    # A check over no cases must not report a vacuous pass.
    res = run_cli(argv + ["--out-dir", str(tmp_path)])
    assert res.returncode == 2
    assert res.stderr.startswith("oscillax: ") and option in res.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("rho_min, rho_max, message", [
    ("10", "2", "8 dyadic octaves"),
    ("0", "4096", "start above 1"),
    ("2", "nan", "must be finite"),
    ("2", "inf", "must be finite"),
    ("2", "-5", "8 dyadic octaves"),
    ("nan", "4096", "must be finite"),
], ids=["reversed", "from-zero", "max-nan", "max-inf", "max-negative",
        "min-nan"])
def test_bad_bessel_check_range_writes_nothing(tmp_path, rho_min, rho_max,
                                               message):
    res = run_cli(["bessel-check", "--lambda", "0", "--rho-min", rho_min,
                   "--rho-max", rho_max, "--out-dir", str(tmp_path)])
    assert res.returncode == 2
    assert res.stderr.startswith("oscillax: ") and message in res.stderr
    assert "Warning" not in res.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["kernel", "--m", "4", "--mu", "4", "--a", "0.5", "--s", "nan"],
    ["split-check", "--a", "0.5", "--n", "2", "--s", "nan", "--pairs", "1"],
    ["eval", "--family", "gaussian", "--a", "2", "--n", "2", "--r", "0",
     "--t", "nan"],
    ["kernel", "--m", "4", "--mu", "inf", "--a", "0.5", "--s", "0.2"],
], ids=["kernel-s", "split-check-s", "eval-t", "kernel-mu"])
def test_non_finite_parameter_is_usage_error(tmp_path, argv):
    res = run_cli(argv + ["--out-dir", str(tmp_path)])
    assert res.returncode == 2
    assert res.stderr.startswith("oscillax: ")
    assert "Traceback" not in res.stderr
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv", [
    ["transform", "--family", "gaussian", "--n", "2", "--rho-grid", "nan:1:3"],
    ["transform", "--family", "gaussian", "--n", "2", "--rho-grid", "log:1:inf:3"],
    ["oracle-compare", "--family", "bump", "--n", "2", "--rho-grid", "0:inf:3"],
    ["eval-grid", "--family", "gaussian", "--a", "2", "--n", "2",
     "--r-grid", "0:1:3", "--t-grid=0:nan:3"],
], ids=["transform-nan", "transform-log-inf", "oracle-inf", "eval-grid-t-nan"])
def test_non_finite_grid_spec_is_usage_error(tmp_path, argv):
    res = run_cli(argv + ["--out-dir", str(tmp_path)])
    assert res.returncode == 2
    assert "bad grid spec" in res.stderr
    assert "RuntimeWarning" not in res.stderr
    assert not list(tmp_path.glob("*.csv"))


_SWEEP_CONF = "a=0.5\nn=2\ns_list=0.0625\nN_list=2\nrange=local\n"


def _record_sweeps(monkeypatch):
    """Replace the CLI's sweep by one that records its config and runs no cell."""
    seen = []

    def record(cfg, workers=0):
        seen.append(cfg)
        return [], {}

    monkeypatch.setattr(cli, "run_sweep", record)
    return seen


def test_abbreviated_flag_overrides_config_entry(tmp_path, monkeypatch):
    conf = tmp_path / "run.conf"
    conf.write_text(_SWEEP_CONF + "modulated=true\ny_count=4\n")
    seen = _record_sweeps(monkeypatch)
    rc = cli.main(["sweep", "--config", str(conf), "--y-c", "2",
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    assert seen[0].y_count == 2
    summary = json.loads((tmp_path / "sweep_summary.json").read_text())
    assert summary["config"]["y_count"] == 2


@pytest.mark.parametrize("line", ["func=x", "command=eval"])
def test_config_keys_that_name_no_option_are_ignored(tmp_path, line):
    conf = tmp_path / "run.conf"
    conf.write_text(_SWEEP_CONF + line + "\n")
    res = run_cli(["sweep", "--config", str(conf), "--out-dir", str(tmp_path)])
    assert res.returncode == 0
    assert "Traceback" not in res.stderr
    assert len((tmp_path / "sweep.csv").read_text().strip().splitlines()) == 2


def test_false_config_boolean_leaves_flag_off(tmp_path, monkeypatch):
    conf = tmp_path / "run.conf"
    conf.write_text(_SWEEP_CONF + "modulated=false\n")
    seen = _record_sweeps(monkeypatch)
    for flags in ([], ["--mod"]):
        assert cli.main(["sweep", "--config", str(conf), "--out-dir",
                         str(tmp_path)] + flags) == 0
    # Off from the config alone; an abbreviated flag still turns it on.
    assert [cfg.modulated for cfg in seen] == [False, True]


def test_config_value_outside_choices_is_argparse_usage_error(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(_SWEEP_CONF.replace("range=local", "range=sideways"))
    res = run_cli(["sweep", "--config", str(conf), "--out-dir", str(tmp_path)])
    assert res.returncode == 2
    assert "argument --range: invalid choice: 'sideways'" in res.stderr


def test_diverging_sobolev_norm_exits_4(tmp_path, recwarn):
    rc = cli.main(["sweep", "--a", "2", "--n", "2", "--s-list", "400",
                   "--N-list", "2", "--out-dir", str(tmp_path)])
    assert rc == 4
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
