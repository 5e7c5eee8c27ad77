"""The four benchmark workloads: inputs from a seed, one timed pass, checks.

Every workload is a scaled-down slice of an acceptance computation, sized so
that one pass takes a few seconds on one core and a run holds several
passes.  `inputs(seed, size)` builds everything a pass needs from the seed;
`run_pass` calls the public oscillax functions and returns the outputs; the
checks compare them with pinned references (`references.json`) or with the
invariants the library guarantees.  The same seed always gives the same
inputs, and every seed gives the same amount of work: the seed moves values
(profile coefficients, bump amplitudes, selector times), never problem sizes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

WHY = {
    "shell-global": "the paper's headline computation and the suite's bottleneck: "
                    "large Bessel arguments on the lam = 0 Hankel path and deep dyadic time levels",
    "modulated-local": "many small fields (r <= 1) at shallow time levels, so per-call cost "
                       "and quadrature rules rebuilt for each modulation y weigh more",
    "split-bounds": "the only workload on split's cosine kernels, bessel_j on 2-D arguments "
                    "and maximal_kernel's per-t loop; the shell workloads never touch this code",
    "higher-dim": "the only workload on the lam != 0 Bessel paths (n = 3 closed form, "
                  "n = 4 series/Hankel), where a blanket backend switch shows its cost",
}

# Scaled-down sizes.  "full" is what the benchmark measures; "tiny" exercises
# the same calls in a second or two, for the self-test.
SIZES = {
    "full": {
        "shell-global": {"N_list": (8.0,)},
        "modulated-local": {"N_list": (32.0, 64.0), "y_count": 8},
        "split-bounds": {"grid": (12.0, 22.0), "kernel_m": (4.0, 8.0)},
        "higher-dim": {"cells": ((3, 2.0), (4, 2.0))},
    },
    "tiny": {
        "shell-global": {"N_list": (2.0,)},
        "modulated-local": {"N_list": (8.0,), "y_count": 2},
        "split-bounds": {"grid": (6.0, 8.0), "kernel_m": (2.0,)},
        "higher-dim": {"cells": ((3, 2.0),)},
    },
}

# The criterion-8 band-limited family: bandlimited(k) for k < 10.  The
# workload seed picks one member, whose local range norm is pinned.
BANDLIMITED_POOL = 10
SWEEP_S = {"shell-global": (0.25, 0.75), "modulated-local": (0.0625, 0.375),
           "higher-dim": (0.25, 0.75)}
SPLIT_PAIRS = ((0.5, 0.2), (2.0, 0.6))
ISO_TIMES = (-0.9, -0.4, 0.0, 0.4, 0.9)
HANKEL_RHO = (0.1, 12.0, 20)

# Tolerances of the checks, each the one the library or acceptance suite uses.
REL_TOL_CELL = 5e-3        # converged_maximal_field / maximal_kernel rel_tol
TOL_ISOMETRY = 1e-5        # criterion 3
TOL_RECOMPOSE = 1e-9       # criterion 5
TOL_HANKEL = 1e-6          # criterion 2


@dataclass
class Pass:
    """Outputs of one pass: pinned values, invariant checks and unit times."""

    values: dict          # check id -> value, compared with the pinned reference
    checks: list          # (check id, ok, detail) for reference-free invariants
    units: list           # seconds of each cell the benchmark timed itself


def _timed(units, fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    units.append(time.perf_counter() - t0)
    return out


def framed_split_profile(ox, seed: int):
    """random_test_profile(seed) plus two fixed narrow bumps at its edges.

    The frame pins the support to [0, 19] and the finest scale to 0.4, so the
    quadrature rule, and hence the work, is the same for every seed.
    """
    frame = ox.profiles.bump(0.8, 0.8).scaled(0.5).plus(
        ox.profiles.bump(18.2, 0.8).scaled(-0.5))
    return ox.split.random_test_profile(seed).plus(frame)


def two_bumps(ox, amplitudes):
    """bump(0.9, 0.6) and bump(1.1, 0.6) with the given amplitudes.

    Only the amplitudes are random, so the support [0.3, 1.7] and the scale,
    and with them the quadrature rules, are the same for every seed.
    """
    return ox.profiles.bump(0.9, 0.6).scaled(float(amplitudes[0])).plus(
        ox.profiles.bump(1.1, 0.6).scaled(float(amplitudes[1])))


def inputs(ox, workload: str, seed: int, size: str = "full") -> dict:
    """Everything a pass needs, generated from the seed."""
    cfg = SIZES[size][workload]
    if workload == "shell-global":
        return {"sweep": ox.sweep.SweepConfig(
                    a=2.0, n=2, s_list=SWEEP_S[workload], N_list=cfg["N_list"],
                    range_kind="global", family="shell"),
                "bandlimited": seed % BANDLIMITED_POOL}
    if workload == "modulated-local":
        return {"sweep": ox.sweep.SweepConfig(
                    a=0.5, n=2, s_list=SWEEP_S[workload], N_list=cfg["N_list"],
                    range_kind="local", family="shell", modulated=True,
                    y_count=cfg["y_count"])}
    if workload == "split-bounds":
        grid, grid_w = ox.split.selector_grid(*cfg["grid"])
        pairs = []
        for k, (a, s) in enumerate(SPLIT_PAIRS):
            p = ox.oscillatory.SymbolParams(a=a, n=2, s=s)
            f = framed_split_profile(ox, 2 * seed + k)
            # Criterion 6 bound for this pair and the profile's L2 norm.
            cert = ox.bessel.certify_asymptotic(p.lam, 1.05, 2.0 ** 12)
            rho_f, w_f = ox.radial.profile_rule(f, 1)
            pairs.append({
                "p": p, "profile": f,
                "selector": ox.split.TimeSelector.random(grid, seed=1000 + 2 * seed + k),
                "bound": ox.split.remainder_constant(p, ox.cutoffs.make_cutoff(), cert),
                "fnorm": math.sqrt(float(np.sum(w_f * np.abs(f(rho_f)) ** 2)))})
        return {"grid": grid, "grid_w": grid_w, "pairs": pairs,
                "recompose_seed": seed, "kernel_m": cfg["kernel_m"]}
    if workload == "higher-dim":
        return {"sweeps": [ox.sweep.SweepConfig(
                    a=2.0, n=n, s_list=SWEEP_S[workload], N_list=(N,),
                    range_kind="global", family="shell") for n, N in cfg["cells"]],
                "iso_amplitudes": np.random.default_rng(seed).uniform(0.5, 1.5, 2)}
    raise ValueError(f"unknown workload {workload!r}")


def _sweep_values(prefix, records, values):
    for r in records:
        key = f"{prefix}/n={r.p.n}/N={r.N:g}/s={r.p.s:g}"
        values[f"{key}/Q"] = r.Q
        if r.A is not None:
            values[f"{key}/A"] = r.A


def run_pass(ox, workload: str, inp: dict) -> Pass:
    values, checks, units = {}, [], []
    if workload in ("shell-global", "modulated-local"):
        records, _ = ox.sweep.run_sweep(inp["sweep"], workers=0)
        _sweep_values(workload, records, values)
        if workload == "shell-global":
            k = inp["bandlimited"]
            g = ox.profiles.bandlimited(k)
            p = ox.oscillatory.SymbolParams(a=2.0, n=2)
            fld = _timed(units, ox.norms.converged_maximal_field, g, p, local=True)
            values[f"bandlimited/{k}/local_norm"] = ox.norms.range_norm(fld, p, "local")
    elif workload == "split-bounds":
        _split_pass(ox, inp, values, checks, units)
    elif workload == "higher-dim":
        _higher_dim_pass(ox, inp, values, checks, units)
    return Pass(values, checks, units)


def _split_pass(ox, inp, values, checks, units):
    for pair in inp["pairs"]:
        p = pair["p"]
        t0 = time.perf_counter()
        out = {part: ox.split.apply_selector_radial(pair["profile"], pair["selector"], p, part)
               for part in ("full", "main", "remainder")}
        units.append(time.perf_counter() - t0)
        tag = f"split/a={p.a:g}/s={p.s:g}"
        dev = float(np.max(np.abs(out["main"] + out["remainder"] - out["full"])))
        checks.append((f"{tag}/main+remainder=full", dev <= TOL_RECOMPOSE, f"dev {dev:.2e}"))
        # Criterion 6: the explicit remainder operator bound holds.
        ratio = ox.split.l2_halfline(out["remainder"], inp["grid_w"]) / pair["fnorm"]
        checks.append((f"{tag}/remainder_bound", ratio <= pair["bound"],
                       f"{ratio:.4f} <= {pair['bound']:.4f}"))
    p = ox.oscillatory.SymbolParams(a=0.5, n=2, s=0.2)
    res = _timed(units, ox.split.recompose_residual,
                 ox.split.random_test_profile(inp["recompose_seed"]), p,
                 np.linspace(0.0, 6.0, 13), np.array([-0.7, 0.0, 0.5]))
    checks.append(("split/recompose_residual", res <= TOL_RECOMPOSE, f"residual {res:.2e}"))
    for m in inp["kernel_m"]:
        _, _, l1 = _timed(units, ox.split.maximal_kernel, m, m, p)
        values[f"split/maximal_kernel/m=mu={m:g}/l1"] = l1


def _higher_dim_pass(ox, inp, values, checks, units):
    for cfg in inp["sweeps"]:
        records, _ = ox.sweep.run_sweep(cfg, workers=0)
        _sweep_values("higher-dim", records, values)
    g = two_bumps(ox, inp["iso_amplitudes"])
    for a in (0.5, 2.0):
        p = ox.oscillatory.SymbolParams(a=a, n=3)
        ratios = _timed(units, ox.oscillatory.isometry_ratios, g, p, np.array(ISO_TIMES))
        dev = float(np.max(np.abs(ratios - 1.0)))
        checks.append((f"higher-dim/isometry/a={a:g}", dev <= TOL_ISOMETRY, f"|ratio-1| {dev:.2e}"))
    # Criterion 2's spatial bump: the oracle's cost grows fast with support.
    f0 = ox.profiles.bump(1.0, 0.7)
    rhos = np.linspace(*HANKEL_RHO)
    t0 = time.perf_counter()
    hv = np.atleast_1d(ox.radial.hankel_fourier(f0, 3, rhos))
    ov = np.real(ox.radial.nd_oracle_batch(f0, 3, rhos))
    units.append(time.perf_counter() - t0)
    dev = float(np.max(np.abs(hv - ov) / np.abs(ov)))
    checks.append(("higher-dim/hankel_vs_oracle", dev <= TOL_HANKEL, f"rel dev {dev:.2e}"))


def check(result: Pass, refs: dict) -> list:
    """All checks of one pass as (id, ok, detail); references by id."""
    out = list(result.checks)
    for key, value in result.values.items():
        ref = refs.get(key)
        if ref is None:
            out.append((key, False, "no pinned reference"))
            continue
        ok = math.isfinite(value) and abs(value - ref) <= REL_TOL_CELL * abs(ref)
        out.append((key, ok, f"{value:.10g} vs pinned {ref:.10g}"))
    return out


def warm_up(ox) -> None:
    """Fill lazy caches (Gauss-Legendre tables, numpy/scipy first calls)."""
    for lam in (0.0, 0.5, 1.0):
        ox.bessel.bessel_kernel_reduced(lam, np.linspace(0.0, 40.0, 64))
    g = ox.profiles.shell(4.0, 1.0)
    p = ox.oscillatory.SymbolParams(a=2.0, n=2)
    ox.oscillatory.dispersive_field(g, p, np.linspace(0.0, 2.0, 8), np.array([0.0, 0.5]))
    ox.radial.profile_rule(g, 2)

