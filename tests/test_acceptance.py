"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from oscillax.bessel import bessel_j, bessel_main_term, certify_asymptotic
from oscillax.cutoffs import gamma_weight, make_cutoff
from oscillax.norms import converged_maximal_field, range_norm
from oscillax.oscillatory import (SymbolParams, dispersive_field,
                                  gaussian_free_evolution, isometry_ratios)
from oscillax.profiles import annular, bandlimited, bump, gaussian
from oscillax.radial import hankel_fourier, nd_oracle_batch, sobolev_norm
from oscillax.split import recompose_residual, remainder_constant, split_checks


def _report(num: int, name: str, ok: bool, elapsed: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} [{status}] {name} ({elapsed:.1f}s) {detail}")
    assert ok, f"criterion {num} failed: {name} {detail}"


def test_criterion_1_bessel_certification():
    t0 = time.monotonic()
    ok = True
    details = []
    for lam in (0.0, 0.5, 1.0, 1.5):
        cert = certify_asymptotic(lam, 2.0, 2.0 ** 12)
        ok &= np.isfinite(cert.c_lambda_empirical)
        # decay witness: per-octave remainder sups are non-increasing once
        # past the first octave
        lo, raw_sups = 2.0, []
        while lo < 2.0 ** 12 * (1 - 1e-12):
            hi = min(lo * 2.0, 2.0 ** 12)
            grid = np.exp(np.linspace(np.log(lo), np.log(hi), 512, endpoint=False))
            raw = np.abs(np.asarray(bessel_j(lam, grid))
                         - np.asarray(bessel_main_term(lam, grid)))
            raw_sups.append(float(raw.max()))
            lo = hi
        diffs = np.diff(raw_sups[1:])
        ok &= bool(np.all(diffs <= 1e-12))
        if lam == 0.5:
            ok &= cert.c_lambda_empirical <= 1e-12
            ok &= max(raw_sups) <= 1e-12
        details.append(f"lam={lam}: c={cert.c_lambda_empirical:.3e}")
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    _report(1, "Bessel asymptotic certification", ok, elapsed, "; ".join(details))


def test_criterion_2_hankel_oracle_equivalence():
    t0 = time.monotonic()
    ok = True
    worst = 0.0
    for n in (2, 3):
        for f0, rho_hi in ((gaussian(1.0), 5.5), (bump(1.0, 0.7), 12.0)):
            rhos = np.linspace(0.1, rho_hi, 20)
            hv = np.atleast_1d(hankel_fourier(f0, n, rhos))
            ov = np.real(nd_oracle_batch(f0, n, rhos))
            worst = max(worst, float(np.max(np.abs(hv - ov) / np.abs(ov))))
        # closed-form comparison on radii where 1e-8 pointwise relative is
        # meaningful against double-precision quadrature roundoff
        gauss_pts = np.linspace(0.1, 4.5, 20)
        vals = hankel_fourier(gaussian(1.0), n, gauss_pts)
        ref = (2.0 * math.pi) ** (n / 2.0) * np.exp(-gauss_pts ** 2 / 2.0)
        ok &= bool(np.max(np.abs(vals - ref) / np.abs(ref)) <= 1e-8)
    ok &= worst <= 1e-6
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0
    _report(2, "Hankel vs tensor oracle", ok, elapsed,
            f"worst rel dev {worst:.2e}")


def test_criterion_3_isometry_suite():
    t0 = time.monotonic()
    families = [gaussian(1.0), gaussian(0.6), bump(1.0, 0.7),
                annular(2.0), annular(4.0)]
    ts = np.array([-0.9, -0.4, 0.0, 0.4, 0.9])
    worst = 0.0
    for a in (0.5, 2.0):
        p = SymbolParams(a=a, n=2)
        for g in families:
            ratios = isometry_ratios(g, p, ts)
            worst = max(worst, float(np.max(np.abs(ratios - 1.0))))
    ok = worst <= 1e-5

    # t = 0 recovers f at 20 radii
    p = SymbolParams(a=2.0, n=2)
    rs = np.linspace(0.0, 2.5, 20)
    got = dispersive_field(gaussian(1.0), p, rs, 0.0)
    ref = gaussian_free_evolution(1.0, p, rs, 0.0)
    rec_dev = float(np.max(np.abs(got - ref) / np.abs(ref)))
    ok &= rec_dev <= 1e-6
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120.0
    _report(3, "time-slice isometry and t=0 recovery", ok, elapsed,
            f"worst |ratio-1| {worst:.2e}, recovery dev {rec_dev:.2e}")


def test_criterion_4_gamma_comparability():
    t0 = time.monotonic()

    def band(s, hi):
        xi = np.concatenate([np.linspace(0.0, 1.0, 513),
                             np.exp(np.linspace(0.0, np.log(hi), 8192))])
        r = gamma_weight(s, xi) / (1.0 + xi ** 2) ** s
        return float(r.min()), float(r.max())

    ok = True
    details = []
    for s in (-1.0, -0.5, 0.0, 0.25, 0.5, 1.0):
        lo1, hi1 = band(s, 2.0 ** 14)
        lo2, hi2 = band(s, 2.0 ** 15)
        stable = abs(lo2 - lo1) <= 0.01 * lo1 and abs(hi2 - hi1) <= 0.01 * hi1
        ok &= stable
        details.append(f"s={s}: [{lo1:.3f},{hi1:.3f}]")
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    _report(4, "dyadic weight comparability bands", ok, elapsed,
            "; ".join(details))


def test_criterion_5_decomposition_exactness():
    t0 = time.monotonic()
    p = SymbolParams(a=0.5, n=2, s=0.2)
    residual = recompose_residual(annular(4.0), p, np.linspace(0.0, 6.0, 13),
                                  np.array([-0.7, 0.0, 0.5]))
    ok = residual <= 1e-9
    worst, _ = split_checks(p, 20, 1000)
    ok &= worst <= 1e-9
    elapsed = time.monotonic() - t0
    _report(5, "cutoff recomposition and cosine split", ok, elapsed,
            f"recompose {residual:.1e}, split dev {worst:.1e}")


def test_criterion_6_remainder_bound():
    t0 = time.monotonic()
    cut = make_cutoff()
    ok = True
    details = []
    for a, s in ((0.5, 0.2), (2.0, 0.6)):
        p = SymbolParams(a=a, n=2, s=s)
        cert = certify_asymptotic(p.lam, 1.05, 2.0 ** 12)
        bound = remainder_constant(p, cut, cert)
        _, worst = split_checks(p, 20, 2000)
        ok &= worst <= bound
        details.append(f"(a={a},s={s}): bound {bound:.4f}, worst {worst:.4f}")
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120.0
    _report(6, "explicit remainder operator bound", ok, elapsed,
            "; ".join(details))


def test_criterion_7_threshold_bracketing(a2_global_shell_sweep,
                                          a05_modulated_sweep):
    ok = True
    details = []

    _, exps, t_a2 = a2_global_shell_sweep
    slope_lo, slope_hi = exps["0.25"], exps["0.75"]
    ok &= slope_lo >= 0.05 and slope_hi <= 0.05
    details.append(f"a=2: slope(s=a/8)={slope_lo:+.3f}, "
                   f"slope(s=a/4+.25)={slope_hi:+.3f}")

    _, exps, t_a05 = a05_modulated_sweep
    slope_lo, slope_hi = exps["0.0625"], exps["0.375"]
    ok &= slope_lo >= 0.05 and slope_hi <= 0.05
    details.append(f"a=1/2 (modulated avg): slope(s=a/8)={slope_lo:+.3f}, "
                   f"slope(s=a/4+.25)={slope_hi:+.3f}")
    elapsed = t_a2 + t_a05
    ok &= elapsed < 1800.0
    _report(7, "regularity threshold bracketing at a/4", ok, elapsed,
            "; ".join(details))


def test_criterion_8_band_limited_uniformity():
    t0 = time.monotonic()
    p = SymbolParams(a=2.0, n=2)
    ratios = []
    for seed in range(10):
        g = bandlimited(seed)
        fld = converged_maximal_field(g, p, local=False)
        ratios.append(range_norm(fld, p, "global") / sobolev_norm(g, 2, 0.0))
    ratios = np.array(ratios)
    spread = float(ratios.max() / ratios.min())
    ok = spread <= 3.0
    elapsed = time.monotonic() - t0
    ok &= elapsed < 300.0
    _report(8, "band-limited maximal/L2 uniformity", ok, elapsed,
            f"ratios in [{ratios.min():.3f}, {ratios.max():.3f}], "
            f"spread {spread:.2f}")


def test_criterion_9_worker_determinism(tmp_path):
    t0 = time.monotonic()
    outs = {}
    for workers in (1, 8):
        out = tmp_path / f"w{workers}"
        res = subprocess.run(
            [sys.executable, "-m", "oscillax.cli", "sweep",
             "--out-dir", str(out), "--a", "0.5", "--n", "2",
             "--s-list", "0.0625", "--N-list", "2,4,8",
             "--range", "local", "--modulated", "--y-count", "8"],
            env={**__import__("os").environ, "OSCILLAX_WORKERS": str(workers)},
            capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        outs[workers] = (out / "sweep.csv").read_bytes()
    ok = outs[1] == outs[8]
    elapsed = time.monotonic() - t0
    _report(9, "byte-identical sweeps across worker counts", ok, elapsed,
            f"{len(outs[1])} bytes compared")
