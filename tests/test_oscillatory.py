import math

import numpy as np
import pytest

import oscillax.oscillatory as oscillatory
import oscillax.radial as radial
from oscillax.norms import modulated_numerators, sharpness_profile
from oscillax.oscillatory import (SymbolParams, arrival_radius,
                                  dispersive_field,
                                  dispersive_field_2d_oracle,
                                  gaussian_free_evolution, isometry_ratios,
                                  spatial_extent)
from oscillax.profiles import (NumericalFailure, Profile, annular,
                               bandlimited, bump, gaussian, sampled)
from oscillax.radial import hankel_fourier, profile_rule, sphere_factor
from oscillax.split import TimeSelector


def test_symbol_params_validation():
    with pytest.raises(ValueError):
        SymbolParams(a=0.0, n=2)
    with pytest.raises(ValueError):
        SymbolParams(a=1.0, n=0)
    assert SymbolParams(a=2.0, n=3).lam == 0.5


@pytest.mark.parametrize("call, message", [
    (lambda v: TimeSelector(grid=np.array([0.0, 1.0]), values=np.array([0.0, v])),
     "selector values must satisfy"),
    (lambda v: modulated_numerators(annular(4.0), SymbolParams(a=0.5, n=2), [0.5, v]),
     "modulations must satisfy"),
    (lambda v: isometry_ratios(gaussian(1.0), SymbolParams(a=2.0, n=2), [0.3, v]),
     "times must satisfy"),
], ids=["TimeSelector", "modulated_numerators", "isometry_ratios"])
def test_time_guards_reject_nan(call, message):
    # NaN fails every comparison, so a guard must test |v| < 1, not |v| >= 1.
    with pytest.raises(ValueError, match=message):
        call(float("nan"))


def test_eval_point_validation():
    g = gaussian(1.0)
    p = SymbolParams(a=2.0, n=2)
    with pytest.raises(ValueError):
        dispersive_field(g, p, -0.1, 0.0)
    with pytest.raises(ValueError):
        dispersive_field(g, p, 1.0, 1.0)


def test_rejects_time_outside_unit_interval():
    g = gaussian(1.0)
    with pytest.raises(ValueError):
        dispersive_field(g, SymbolParams(a=2.0, n=2), 1.0, 1.0)
    with pytest.raises(ValueError):
        dispersive_field(g, SymbolParams(a=2.0, n=2), -1.0, 0.5)


def test_time_zero_reproduces_gaussian():
    p = SymbolParams(a=0.5, n=2)
    g = gaussian(1.0)
    rs = np.linspace(0.0, 4.0, 17)
    vals = dispersive_field(g, p, rs, 0.0)
    # f = inverse transform of the unit frequency gaussian
    ref = (2.0 * math.pi) ** (-1.0) * np.exp(-rs ** 2 / 2.0)
    assert np.abs(vals - ref).max() <= 1e-10 * np.abs(ref).max()


def test_time_zero_reproduces_annular_via_transform():
    # independent path: u(r, 0) = (2 pi)^(-n) * (forward transform of g at r)
    p = SymbolParams(a=2.0, n=2)
    g = annular(4.0)
    rs = np.linspace(0.0, 5.0, 21)
    vals = dispersive_field(g, p, rs, 0.0)
    ref = np.array([hankel_fourier(g, 2, r) for r in rs]) / (2.0 * math.pi) ** 2
    scale = np.abs(ref).max()
    assert np.abs(vals - ref).max() <= 1e-8 * scale


@pytest.mark.parametrize("n", [2, 3])
def test_free_evolution_closed_form(n):
    p = SymbolParams(a=2.0, n=n)
    g = gaussian(1.0)
    rng = np.random.default_rng(5)
    rs = rng.uniform(0.0, 3.0, 6)
    ts = rng.uniform(-0.95, 0.95, 5)
    vals = dispersive_field(g, p, rs, ts)
    ref = gaussian_free_evolution(1.0, p, rs[:, None], ts[None, :])
    assert np.abs(vals - ref).max() <= 1e-10


def test_single_point_wrapper():
    p = SymbolParams(a=2.0, n=2)
    v = dispersive_field(gaussian(1.0), p, 0.7, 0.3)
    ref = gaussian_free_evolution(1.0, p, 0.7, 0.3)
    assert v == pytest.approx(complex(ref), abs=1e-12)


def test_band_limited_center_value_bounded():
    # |u(0, t)| <= (2 pi)^(-n) sphere_factor(n) int rho^(n-1) |g| drho
    p = SymbolParams(a=0.7, n=2)
    g = bump(1.25, 0.75)  # supported in [1/2, 2]
    rho, w = profile_rule(g, 2)
    ceiling = (2.0 * math.pi) ** -2 * sphere_factor(2) * float(
        np.sum(w * rho * np.abs(g(rho))))
    for t in (-0.9, -0.2, 0.45, 0.8):
        assert abs(dispersive_field(g, p, 0.0, t)) <= ceiling * (1 + 1e-12)


def test_oracle_agreement_annular():
    p = SymbolParams(a=0.5, n=2)
    g = annular(2.0)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        r = rng.uniform(0.0, 4.0)
        t = rng.uniform(-0.95, 0.95)
        direct = dispersive_field(g, p, r, t)
        oracle = dispersive_field_2d_oracle(g, p, r, t)
        worst = max(worst, abs(direct - oracle) / abs(oracle))
    assert worst <= 1e-6


def test_oracle_time_zero_is_inverse_transform():
    p = SymbolParams(a=0.5, n=2)
    g = annular(2.0)
    v = dispersive_field_2d_oracle(g, p, 1.2, 0.0)
    ref = hankel_fourier(g, 2, 1.2) / (2.0 * math.pi) ** 2
    assert v == pytest.approx(ref, rel=1e-8)


def test_oracle_rotational_invariance():
    p = SymbolParams(a=0.5, n=2)
    g = annular(2.0)
    v1 = dispersive_field_2d_oracle(g, p, np.array([1.1, 0.0]), 0.4)
    v2 = dispersive_field_2d_oracle(g, p, np.array([0.0, 1.1]), 0.4)
    assert abs(v1 - v2) <= 1e-10


def test_oracle_requires_compact_support():
    p = SymbolParams(a=2.0, n=2)
    with pytest.raises(ValueError):
        dispersive_field_2d_oracle(gaussian(1.0), p, 1.0, 0.1)
    with pytest.raises(ValueError):
        dispersive_field_2d_oracle(annular(2.0), SymbolParams(a=2.0, n=3), 1.0, 0.1)


def test_isometry_time_zero():
    assert isometry_ratios(gaussian(1.0), SymbolParams(a=2.0, n=2), [0.0])[0] == \
        pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("g,a,t", [
    (gaussian(1.0), 2.0, 0.5),
    (annular(8.0), 0.5, -0.9),
])
def test_isometry_nontrivial_slices(g, a, t):
    ratio = isometry_ratios(g, SymbolParams(a=a, n=2), [t])[0]
    assert ratio == pytest.approx(1.0, abs=1e-5)


def test_isometry_rejects_zero_profile():
    zero = Profile(fn=lambda r: np.zeros_like(r),
                   support=(0.5, 1.5), scale=0.5)
    with pytest.raises(ValueError):
        isometry_ratios(zero, SymbolParams(a=2.0, n=2), [0.3])


def _spatial_extent_oracle(g, p):
    """spatial_extent evaluating every candidate grid in full."""
    tol = oscillatory._EXTENT_TOL
    radius = 6.0 / g.scale + g.modulation_rate + 6.0
    for _ in range(10):
        grid = np.linspace(0.0, radius, 769)
        vals = np.abs(dispersive_field(g, p, grid, 0.0))
        peak = float(np.max(vals))
        if peak == 0.0:
            raise ValueError("zero profile")
        alive = np.nonzero(vals > tol * peak)[0]
        if alive.size and alive[-1] < 0.7 * grid.size:
            return float(grid[min(alive[-1] + grid.size // 16, grid.size - 1)])
        radius *= 1.7
    raise NumericalFailure("field does not decay within the spatial extent search")


def _kernel_rows(monkeypatch):
    """Record the number of radii of every propagator built from now on."""
    rows = []

    class Counting(oscillatory.RadialKernel):
        def __init__(self, lam, x, *args):
            rows.append(x.size)
            super().__init__(lam, x, *args)

    monkeypatch.setattr(oscillatory, "RadialKernel", Counting)
    return rows


_TWO_BUMPS = bump(0.9, 0.6).plus(bump(1.1, 0.6).scaled(0.7))


@pytest.mark.parametrize("g, a, n", [
    (sharpness_profile("shell", 2.0, 2.0), 2.0, 2),
    (sharpness_profile("shell", 8.0, 2.0), 2.0, 2),
    (sharpness_profile("shell", 128.0, 2.0), 2.0, 2),
    (sharpness_profile("shell", 2.0, 2.0), 2.0, 3),
    (sharpness_profile("shell", 2.0, 2.0), 2.0, 4),
    (sharpness_profile("shell", 16.0, 3.0), 3.0, 2),
    (sharpness_profile("annular", 8.0, 2.0), 2.0, 2),
    (_TWO_BUMPS, 2.0, 3),
    (gaussian(1.0).modulate(0.7), 2.0, 2),
    (sharpness_profile("shell", 1024.0, 0.5), 0.5, 2),
    (bandlimited(2), 2.0, 2),
], ids=["shell-N2", "shell-N8", "shell-N128", "shell-n3", "shell-n4",
        "shell-a3-N16", "annular-N8", "two-bumps-n3", "modulated-gaussian",
        "shell-a05-N1024", "bandlimited-2"])
def test_spatial_extent_matches_full_grid_oracle(g, a, n):
    # The oracle's grids take no panels, so every row is bessel_kernel_reduced's.
    p = SymbolParams(a=a, n=n)
    assert spatial_extent(g, p) == _spatial_extent_oracle(g, p)


def test_spatial_extent_evaluates_one_full_grid(monkeypatch):
    # Four grids are rejected before the radius is found; the full-grid
    # search evaluates all five, 3,845 rows.
    rows = _kernel_rows(monkeypatch)
    spatial_extent(sharpness_profile("shell", 8.0, 2.0),
                   SymbolParams(a=2.0, n=2))
    assert rows.count(769) == 1 and sum(rows) <= 769 + 16 * 5


def test_spatial_extent_grid_takes_hankel_rows(monkeypatch):
    far, original = [], radial.RadialKernel._hankel_rows

    def counting(self, table, rows, kern):
        if self.x.size == 769:
            far.append(int(np.count_nonzero(table.mask[rows])))
        return original(self, table, rows, kern)

    monkeypatch.setattr(radial.RadialKernel, "_hankel_rows", counting)
    spatial_extent(sharpness_profile("shell", 8.0, 2.0), SymbolParams(a=2.0, n=2))
    assert sum(far) >= 700


def test_spatial_extent_full_grid_rejects_what_the_probe_passes(monkeypatch):
    # e^{i 30 rho} is not smooth at xi = 0, so f decays only like a power
    # of r: two grids pass the probe rows and still fail the full test
    # before a third passes both.
    g, p = gaussian(1.0).modulate(30.0), SymbolParams(a=2.0, n=2)
    expected = _spatial_extent_oracle(g, p)
    rows = _kernel_rows(monkeypatch)
    assert spatial_extent(g, p) == expected
    assert rows.count(769) == 3


def test_non_decaying_field_is_a_numerical_failure():
    # The spline jumps from 1 to 0 at the ends of [1, 2], so f decays only
    # like a power of r and never falls below _EXTENT_TOL of its peak in the
    # search.
    g, p = sampled(np.linspace(1.0, 2.0, 9), np.ones(9)), SymbolParams(a=2.0, n=2)
    with pytest.raises(NumericalFailure, match="does not decay"):
        spatial_extent(g, p)
    with pytest.raises(NumericalFailure, match="does not decay"):
        isometry_ratios(g, p, [0.3])


def test_isometry_first_grid_ends_at_the_arrival_radius(monkeypatch):
    # The isometry check truncates R^n where global maximal fields do; its
    # own tail test, not a tighter spatial tolerance, certifies the cut.
    g, p, ts = _TWO_BUMPS, SymbolParams(a=2.0, n=3), [-0.9, 0.0, 0.4]
    ends, original = [], oscillatory.oscillatory_rule

    def recording(lo, hi, **kwargs):
        ends.append(hi)
        return original(lo, hi, **kwargs)

    monkeypatch.setattr(oscillatory, "oscillatory_rule", recording)
    ratios = isometry_ratios(g, p, ts)
    assert ends[0] == arrival_radius(g, p, 0.9)
    assert np.max(np.abs(ratios - 1.0)) <= 1e-5


def test_isometry_growth_evaluates_no_radius_twice(monkeypatch):
    # At a = 1/2 the Gaussian's slow tail makes the truncation grow; each
    # growth evaluates only the stretch past every radius evaluated before.
    g, p, ts = gaussian(1.0), SymbolParams(a=0.5, n=2), [-0.9, 0.0, 0.9]
    radii, original = [], oscillatory.dispersive_field

    def recording(g, p, r, t, **kwargs):
        radii.append(np.asarray(r))
        return original(g, p, r, t, **kwargs)

    monkeypatch.setattr(oscillatory, "dispersive_field", recording)
    ratios = isometry_ratios(g, p, ts)
    assert len(radii) >= 2
    for before, stretch in zip(radii, radii[1:]):
        assert stretch.min() > before.max()
    assert np.max(np.abs(ratios - 1.0)) <= 1e-5


def test_continuity_in_time():
    # |u(r, t+d) - u(r, t)| <= d * (2 pi)^(-n) sphere_factor(n)
    #                              * int rho^(a+n-1) |g| drho
    p = SymbolParams(a=0.5, n=2)
    g = annular(4.0)
    rho, w = profile_rule(g, 2)
    lip = (2.0 * math.pi) ** -2 * sphere_factor(2) * float(
        np.sum(w * rho ** (p.a + 1) * np.abs(g(rho))))
    delta = 1e-3
    rs = np.linspace(0.0, 3.0, 7)
    for t in (-0.5, 0.2, 0.8):
        lhs = np.abs(dispersive_field(g, p, rs, t + delta)
                     - dispersive_field(g, p, rs, t))
        assert np.all(lhs <= delta * lip * (1 + 1e-9))
