import time

import numpy as np
import pytest

import oscillax.norms as norms
import oscillax.radial as radial
from oscillax.sweep import SweepConfig, run_sweep

FULL_SCALES = (2, 4, 8, 16, 32, 64, 128)
SAMPLE_CAP_LEVEL = 1     # at most 2^1 Chebyshev degrees, below the certified one


def grid_sup(layer, t):
    """(sup, arg): per row of a RadialKernel, the max of |u| over the times t
    and the first of them that reaches it, the grid oracle the certified
    Chebyshev sup is checked against.  It drains the layer's sampler, so it
    holds one row chunk of samples at a time.
    """
    sup = np.empty(layer.base.shape[:-1] + layer.x.shape)
    arg = np.empty(sup.shape)
    sup_rows, arg_rows = layer._rows(sup), layer._rows(arg)
    for rows, _, samples in layer._samples(t, layer.power):
        mag = np.abs(samples)
        sup_rows[:, rows] = np.max(mag, axis=-1)
        arg_rows[:, rows] = t[np.argmax(mag, axis=-1)]
    return sup, arg


@pytest.fixture
def no_time_refinement(monkeypatch):
    """Lower radial._MAX_LEVEL so converged_maximal_field caps its Chebyshev
    degree below the certified one and its time sup never certifies.
    Returns the cap level.

    Only in-process sweeps (workers=0) see the cap: spawned workers import
    the unpatched module."""
    monkeypatch.setattr(radial, "_MAX_LEVEL", SAMPLE_CAP_LEVEL)
    return SAMPLE_CAP_LEVEL


@pytest.fixture
def coarse_radial_panels(monkeypatch):
    """Widen norms._start_edges's panels 16-fold and allow no bisection round,
    so a field's radii no longer resolve its sup and the G7/K15 audit should
    flag it.

    Like no_time_refinement, only in-process sweeps see the patch."""
    original = norms.phase_breakpoints

    def coarse(lo, hi, panel_cap, forced):
        return original(lo, hi, panel_cap=16.0 * panel_cap, forced=forced)

    monkeypatch.setattr(norms, "phase_breakpoints", coarse)
    monkeypatch.setattr(norms, "_ROUNDS", 0)


@pytest.fixture(scope="session")
def a2_global_shell_sweep():
    """Shared full-scale a = 2 sweep; the numerators dominate the suite cost.

    s = 0.25 probes below the a/4 threshold, 0.75 above it, 1.5 far above
    (the boundedness observation).  Returns (records, exponents, elapsed).
    """
    t0 = time.monotonic()
    cfg = SweepConfig(a=2.0, n=2, s_list=(0.25, 0.75, 1.5), N_list=FULL_SCALES,
                      range_kind="global", family="shell", modulated=False)
    records, exponents = run_sweep(cfg, workers=0)
    return records, exponents, time.monotonic() - t0


@pytest.fixture(scope="session")
def a05_modulated_sweep():
    t0 = time.monotonic()
    cfg = SweepConfig(a=0.5, n=2, s_list=(0.0625, 0.375), N_list=FULL_SCALES,
                      range_kind="local", family="shell", modulated=True,
                      y_count=16)
    records, exponents = run_sweep(cfg, workers=0)
    return records, exponents, time.monotonic() - t0
