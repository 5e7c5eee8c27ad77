import os

import numpy as np
import pytest

import oscillax.norms as norms
import oscillax.radial as radial
import oscillax.sweep as sweep
from oscillax.oscillatory import SymbolParams
from oscillax.sweep import SweepConfig, run_sweep


@pytest.mark.parametrize("modulated", [False, True])
def test_unconverged_fields_flag_their_cells(no_time_refinement, modulated):
    cfg = SweepConfig(a=0.5, n=2, s_list=(0.1,), N_list=(4.0,),
                      range_kind="local", modulated=modulated, y_count=2)
    records, _ = run_sweep(cfg, workers=0)
    assert records
    assert not any(r.diagnostics["converged"] for r in records)
    assert all(r.diagnostics["t_level"] == no_time_refinement for r in records)


def test_records_carry_radial_grid_size():
    cfg = SweepConfig(a=0.5, n=2, s_list=(0.1,), N_list=(4.0,),
                      range_kind="local")
    records, _ = run_sweep(cfg, workers=0)
    assert records
    for d in (r.diagnostics for r in records):
        assert d["r_points"] > 0 and d["r_max"] == 1.0 and d["rho_points"] > 0
        # t_level is the least L with degree t_samples - 1 <= 2^L
        assert 2 ** (d["t_level"] - 1) < d["t_samples"] - 1 <= 2 ** d["t_level"]
        assert 0.0 < d["t_bound"] <= 0.5 * 5e-3


def test_modulated_config_rejects_empty_modulation_grid():
    for y_count in (0, -3):
        with pytest.raises(ValueError):
            SweepConfig(a=0.5, n=2, s_list=(0.1,), N_list=(4.0,),
                        range_kind="local", modulated=True, y_count=y_count)
    with pytest.raises(ValueError):
        norms.modulated_numerators(norms.sharpness_profile("shell", 4.0, 0.5),
                                   SymbolParams(a=0.5, n=2), [])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_config_rejects_non_finite_scales(bad):
    with pytest.raises(ValueError, match="N_list must be finite and positive"):
        SweepConfig(a=2.0, n=2, s_list=(0.1,), N_list=(bad, 2.0, 4.0, 8.0))


def test_modulated_cell_evaluates_kernels_once(monkeypatch):
    evals = []
    original = radial.bessel_kernel_reduced

    def counting(lam, z):
        evals[-1] += np.size(z)
        return original(lam, z)

    monkeypatch.setattr(radial, "bessel_kernel_reduced", counting)
    for y_count in (2, 8):
        evals.append(0)
        run_sweep(SweepConfig(a=0.5, n=2, s_list=(0.1,), N_list=(4.0,),
                              range_kind="local", modulated=True,
                              y_count=y_count), workers=0)
    assert evals[0] > 0
    assert evals[0] == evals[1]
    # Only the widest modulation sizes the cell's kernels.
    g = norms.sharpness_profile("shell", 32.0, 0.5)
    p = SymbolParams(a=0.5, n=2)
    for grid in ([0.875], np.linspace(-0.875, 0.875, 8)):
        evals.append(0)
        norms.modulated_numerators(g, p, grid)
    assert evals[-2] == evals[-1]


class _RecordingContext:
    """Stands in for the spawn context: records pool sizes, maps in-process."""

    def __init__(self):
        self.sizes = []

    def Pool(self, processes):
        self.sizes.append(processes)
        return _InProcessPool()


class _InProcessPool:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


def test_pool_never_outnumbers_cells(monkeypatch):
    ctx = _RecordingContext()
    monkeypatch.setattr(sweep.mp, "get_context", lambda method: ctx)
    cfg = SweepConfig(a=0.5, n=2, s_list=(0.1,), N_list=(2.0, 4.0),
                      range_kind="local")
    pooled, _ = run_sweep(cfg, workers=8)
    assert ctx.sizes == [2]
    inline, _ = run_sweep(cfg, workers=0)
    assert pooled == inline


def test_pinned_map_restores_blas_threads(monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    before = dict(os.environ)
    assert sweep.pinned_map(abs, [-1, 2], 1) == [1, 2]
    # The child saw every variable pinned; the caller sees them as they were.
    blas = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]
    assert sweep.pinned_map(os.getenv, blas, 1) == ["1"] * 3
    assert dict(os.environ) == before


def test_cells_carry_rho_audit(a2_global_shell_sweep, a05_modulated_sweep):
    for records in (a2_global_shell_sweep[0], a05_modulated_sweep[0]):
        assert all(r.diagnostics["rho_audit"] <= norms._REL_TOL / 10
                   for r in records)
    # The rho rule at phase budget 8 took 1,664 nodes here.
    [rho_points] = {r.diagnostics["rho_points"]
                    for r in a2_global_shell_sweep[0] if r.N == 64.0}
    assert rho_points < 1664


def test_a2_cells_carry_radial_audit(a2_global_shell_sweep):
    records, _, _ = a2_global_shell_sweep
    assert all(r.diagnostics["r_audit"] <= 5e-3 for r in records)
    # Only N = 128 outgrows its first range: 321.7 -> 482.6.
    grown = {r.N: r.diagnostics["r_max"] for r in records
             if r.diagnostics["r_growths"]}
    assert grown == {128.0: pytest.approx(482.55, abs=0.01)}
    assert all(r.diagnostics["r_growths"] == 1 for r in records if r.N == 128)


def test_modulated_cells_never_grow(a05_modulated_sweep):
    records, _, _ = a05_modulated_sweep
    assert all(r.diagnostics["r_growths"] == 0 for r in records)
    assert all(r.diagnostics["r_audit"] <= 5e-3 for r in records)


def test_cells_count_radial_work(a2_global_shell_sweep, a05_modulated_sweep):
    for records in (a2_global_shell_sweep[0], a05_modulated_sweep[0]):
        for d in (r.diagnostics for r in records):
            assert d["r_rows_evaluated"] >= d["r_points"] == 15 * d["r_panels"]
    # Panels at most min(0.125 / scale, r_max / 16) wide took 5,940 rows.
    rows = {r.diagnostics["r_rows_evaluated"]
            for r in a2_global_shell_sweep[0] if r.N == 8.0}
    assert len(rows) == 1 and rows.pop() < 5940


def test_cells_count_hankel_rows(a2_global_shell_sweep, a05_modulated_sweep):
    # The global fields' far rows take the Hankel path; a local field at
    # N <= 16 has x rho < HANKEL_Z0 on every row.
    for r in a2_global_shell_sweep[0]:
        d = r.diagnostics
        assert d["r_rows_evaluated"] >= d["r_rows_far"] > 0
    for r in a05_modulated_sweep[0]:
        far = r.diagnostics["r_rows_far"]
        assert far == 0 if r.N <= 16 else far >= 0
    assert all(r.diagnostics["r_rows_far"] > 0
               for r in a05_modulated_sweep[0] if r.N >= 64)
