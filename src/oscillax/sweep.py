"""Threshold sweep engine: (family, N, s) cells and exponent fits.

A sweep fixes (a, n, family, range) and walks dyadic frequency scales N and
regularities s.  The expensive numerator (the maximal field of the scale-N
profile, or its modulated local variants) depends on N but not on s, so it
is computed once per N and divided by the per-s Sobolev norms afterwards.

Cells are independent (config, N) tasks and may be distributed over worker
processes.  When a pool is used (`pinned_map`), OPENBLAS/MKL threading in
the children is pinned to a single thread before numpy loads, so cell
results are bitwise independent of the pool size; the pool returns them in
task order, N increasing, making the CSV output byte-identical for any
worker count.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
from dataclasses import dataclass

import numpy as np

from .norms import (SweepRecord, converged_maximal_field, exponent_fit,
                    modulated_numerators, range_norm, sharpness_profile)
from .oscillatory import SymbolParams
from .radial import sobolev_norm

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class SweepConfig:
    a: float
    n: int
    s_list: tuple
    N_list: tuple
    range_kind: str = "global"
    family: str = "shell"
    modulated: bool = False
    y_count: int = 16

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("a must be positive")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not self.s_list or not all(np.isfinite(self.s_list)):
            raise ValueError("s_list must be finite and nonempty")
        if (not self.N_list or not all(np.isfinite(self.N_list))
                or min(self.N_list) <= 0):
            raise ValueError("N_list must be finite and positive")
        if self.range_kind not in ("local", "global"):
            raise ValueError("range must be 'local' or 'global'")
        if self.modulated and self.a >= 1:
            raise ValueError("the modulated average probe requires a < 1")
        if self.modulated and self.y_count < 1:
            raise ValueError("y_count must be >= 1")

    def y_grid(self) -> np.ndarray:
        """The midpoints (2k + 1 - m) / m of m equal cells of (-1, 1), mirrored
        bitwise: y_grid() == -y_grid()[::-1]."""
        m = self.y_count
        return np.arange(1 - m, m, 2) / m


def _cell_task(task):
    """Numerator data for one (config, N) cell; runs in a worker process."""
    cfg, N = task
    p = SymbolParams(a=cfg.a, n=cfg.n, s=0.0)
    g = sharpness_profile(cfg.family, N, cfg.a)
    out = {}
    if cfg.modulated:
        y = cfg.y_grid()
        nums, fields = modulated_numerators(g, p, y)
        out["y"] = y.tolist()
        out["numerators"] = nums.tolist()
    else:
        fld = converged_maximal_field(g, p, local=(cfg.range_kind == "local"))
        out["norm"] = range_norm(fld, p, cfg.range_kind)
        fields = [fld]
    worst = max(fields, key=lambda f: f.t_bound)
    out["diagnostics"] = {
        # A cell is as converged as its worst field.
        "converged": all(f.t_converged and f.r_converged for f in fields),
        "t_level": max(f.t_grid.level for f in fields),
        "r_points": max(f.radii.size for f in fields),
        "r_max": max(f.r_max for f in fields),
        "rho_points": max(f.rho_points for f in fields),
        "tail_fraction": max(f.tail_fraction for f in fields),
        "t_samples": worst.t_grid.count,
        "t_bound": worst.t_bound,
        "r_audit": max(f.r_audit for f in fields),
        "r_growths": max(len(f.norm_history) - 1 for f in fields),
        "r_panels": max(f.r_panels for f in fields),
        "r_rows_evaluated": max(f.r_rows_evaluated for f in fields),
        "r_rows_far": max(f.r_rows_far for f in fields),
        "rho_audit": max(f.rho_audit for f in fields),
    }
    return out


def pinned_map(fn, tasks: list, workers: int) -> list:
    """[fn(task) for task in tasks] in a spawn pool of min(workers, tasks)
    processes with single-threaded BLAS, so each result is the same bits
    whatever the pool size or the caller's BLAS thread count.  The children
    inherit the pinning through the environment, which is restored
    afterwards."""
    saved = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
    try:
        os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
        ctx = mp.get_context("spawn")
        with ctx.Pool(processes=min(workers, len(tasks))) as pool:
            return pool.map(fn, tasks)
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def run_sweep(cfg: SweepConfig, workers: int = 0):
    """All sweep records plus fitted exponents per s.

    workers = 0 computes cells in-process; workers >= 1 uses a spawn pool
    of min(workers, cells) processes with single-threaded BLAS in the
    children.
    """
    tasks = [(cfg, float(N)) for N in sorted(cfg.N_list)]
    if workers and workers > 0:
        results = pinned_map(_cell_task, tasks, workers)
    else:
        results = [_cell_task(t) for t in tasks]

    records = []
    for (_, N), res in zip(tasks, results):
        g = sharpness_profile(cfg.family, N, cfg.a)
        if cfg.modulated:
            nums = np.asarray(res["numerators"])
            y = np.asarray(res["y"])
            avg = float(np.trapezoid(nums, y) / (y[-1] - y[0])) \
                if y.size > 1 else float(nums[0])
        for s in cfg.s_list:
            p = SymbolParams(a=cfg.a, n=cfg.n, s=float(s))
            hs = sobolev_norm(g, cfg.n, float(s))
            if cfg.modulated:
                Q, A = math.sqrt(float(nums[-1])) / hs, avg / hs ** 2
            else:
                Q, A = res["norm"] / hs, None
            records.append(SweepRecord(
                family=cfg.family, N=N, p=p, range_kind=cfg.range_kind,
                Q=Q, A=A, diagnostics=res["diagnostics"]))

    records.sort(key=lambda r: (r.family, r.p.s, r.N))
    exponents = {}
    for s in cfg.s_list:
        sub = [r for r in records if r.p.s == float(s)]
        if len(sub) >= 4:
            exponents[f"{float(s):.6g}"] = exponent_fit(
                [r.N for r in sub], [r.fit_value for r in sub])
    return records, exponents


def format_float(x) -> str:
    return f"{float(x):.14e}"
