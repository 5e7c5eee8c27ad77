import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oscillax.norms as norms
import oscillax.oscillatory as oscillatory
from oscillax.norms import (MaximalField, TimeGrid, converged_maximal_field,
                            exponent_fit, modulated_numerators, range_norm,
                            sharpness_profile)
from oscillax.oscillatory import (SymbolParams, dispersive_field,
                                  frequency_rule, gaussian_free_evolution,
                                  propagator)
from oscillax.profiles import (NumericalFailure, Profile, annular, gaussian,
                               shell)
from oscillax.quadrature import (PHASE_BUDGET, kronrod_rule, oscillatory_rule,
                                 panel_rule, phase_breakpoints)
from oscillax.radial import chebyshev_degree, sobolev_norm
from oscillax.sweep import SweepConfig, run_sweep

from conftest import grid_sup


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(points=np.array([]))
    with pytest.raises(ValueError):
        TimeGrid(points=np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        TimeGrid(points=np.array([0.5, 0.25]))


def test_chebyshev_grid_is_closed_and_final():
    grid = TimeGrid.chebyshev(20)
    assert grid.count == 21 and grid.level == 5
    assert grid.points[0] == -1.0 and grid.points[-1] == 1.0
    assert 0.0 in grid.points


def test_local_cell_matches_deep_dyadic_sup():
    # the continuous sup agrees with a level-13 dyadic sup on the same radii
    # and rho rule, where a level-6 grid is visibly low
    p = SymbolParams(a=0.5, n=2)
    g = sharpness_profile("shell", 32.0, p.a)
    fld = converged_maximal_field(g, p, local=True)
    rule = frequency_rule(g, p, r_max=1.0, t_max=1.0)
    norm = range_norm(fld, p, "local")

    def dyadic_norm(level):
        t = np.arange(-(2 ** level - 1), 2 ** level) / 2 ** level
        sup, _ = grid_sup(propagator(g, p, fld.radii, rule), t)
        return range_norm(replace(fld, sup_values=sup), p, "local")

    assert fld.t_converged and fld.t_bound <= 2.5e-3
    assert abs(norm - dyadic_norm(13)) <= 1e-4 * norm
    assert norm - dyadic_norm(6) > 1e-4 * norm


def _doubled_gl8_norms(fld, g, p, range_kind):
    """Range norms of fld's range on the GL-8 doubling grids: panels at most
    min(0.125 / scale, r_max / 16) wide and at half of that, sups from one
    rho rule."""
    cap = min(0.125 / g.scale, fld.r_max / 16.0)
    rule = frequency_rule(g, p, r_max=fld.r_max + g.modulation_rate, t_max=1.0)
    out = []
    for width in (cap, cap / 2.0):
        radii, weights = panel_rule(
            phase_breakpoints(0.0, fld.r_max, panel_cap=width, forced=(1.0,)), 8)
        layer = propagator(g, p, radii, rule)
        sup = layer.chebyshev_sup(fld.t_grid.count - 1)[0]
        out.append(range_norm(replace(fld, radii=radii, weights=weights,
                                      sup_values=sup), p, range_kind))
    return out


@pytest.mark.parametrize("a, N, range_kind", [(2.0, 8.0, "global"),
                                              (2.0, 32.0, "global"),
                                              (0.5, 32.0, "local")])
def test_kronrod_norm_matches_doubled_gl8_oracle(a, N, range_kind):
    p = SymbolParams(a=a, n=2)
    g = sharpness_profile("shell", N, a)
    fld = converged_maximal_field(g, p, local=(range_kind == "local"))
    assert fld.r_converged and len(fld.norm_history) == 1
    coarse, fine = _doubled_gl8_norms(fld, g, p, range_kind)
    gap = max(fld.r_audit, abs(fine - coarse) / fine)
    assert abs(range_norm(fld, p, range_kind) - fine) <= gap * fine


def _eightfold_oracle(fld, g, p, range_kind):
    """fld's range norm with every final panel split into 8 G7/K15 panels,
    each range's panels evaluated on that range's rho rule and degree."""
    mid = fld.radii.reshape(-1, 15)[:, 7]
    half = 0.5 * fld.weights.reshape(-1, 15).sum(axis=1)
    radii, weights, sups, lo = [], [], [], 0.0
    for r_max, *_ in fld.norm_history:
        rule = frequency_rule(g, p, r_max=r_max + g.modulation_rate, t_max=1.0)
        inside = (lo < mid) & (mid < r_max)
        nodes, k_w = (np.concatenate(part) for part in zip(*(
            kronrod_rule(np.linspace(m - h, m + h, 9))[:2]
            for m, h in zip(mid[inside], half[inside]))))
        radii.append(nodes)
        weights.append(k_w)
        layer = propagator(g, p, nodes, rule)
        sups.append(layer.chebyshev_sup(chebyshev_degree(layer.tau))[0])
        lo = r_max
    return range_norm(replace(fld, radii=np.concatenate(radii),
                              weights=np.concatenate(weights),
                              sup_values=np.concatenate(sups)), p, range_kind)


@pytest.mark.parametrize("a, n, N, range_kind", [(2.0, 2, 8.0, "global"),
                                                 (2.0, 2, 32.0, "global"),
                                                 (2.0, 4, 2.0, "global"),
                                                 (0.5, 2, 64.0, "local")])
def test_radial_audit_bounds_eightfold_oracle(a, n, N, range_kind):
    # The summed panel gaps bound the norm's distance to a grid 8x finer.
    p = SymbolParams(a=a, n=n)
    g = sharpness_profile("shell", N, a)
    fld = converged_maximal_field(g, p, local=(range_kind == "local"))
    assert fld.r_converged and fld.r_panels * 15 == fld.radii.size
    norm = range_norm(fld, p, range_kind)
    oracle = _eightfold_oracle(fld, g, p, range_kind)
    assert abs(norm - oracle) <= fld.r_audit * norm


def test_growth_keeps_computed_rows(monkeypatch):
    p = SymbolParams(a=2.0, n=4)
    g = sharpness_profile("shell", 2.0, p.a)
    evaluated, audited, audit_rules = [], [], []
    original, original_rules = norms.propagator, norms._rho_rules

    def rules(*args):
        out = original_rules(*args)
        audit_rules.append(out[1])
        return out

    def recording(g_, p_, nodes, rho_rule, panels=None):
        audit = any(rho_rule is rule for rule in audit_rules)
        (audited if audit else evaluated).append(nodes)
        return original(g_, p_, nodes, rho_rule, panels)

    monkeypatch.setattr(norms, "_rho_rules", rules)
    monkeypatch.setattr(norms, "propagator", recording)
    tail_tol = norms._TAIL_TOL
    # The default target bisects no panel here; 2e-5 bisects three panels
    # of the first range and drops their 45 rows.
    for r_tol, dropped in ((norms._R_TOL, 0), (2e-5, 45)):
        monkeypatch.setattr(norms, "_R_TOL", r_tol)
        monkeypatch.setattr(norms, "_TAIL_TOL", tail_tol)
        evaluated.clear()
        audited.clear()
        grown = converged_maximal_field(g, p)
        (r0, *_), (r1, *_) = grown.norm_history
        assert r0 == pytest.approx(53.83, abs=0.01) and r1 == 1.5 * r0
        assert grown.r_max == r1 and grown.r_converged
        # No kept row is evaluated twice, and the count covers every
        # evaluation.
        rows = np.concatenate(evaluated)
        assert np.unique(rows).size == rows.size == grown.r_rows_evaluated
        assert np.all(np.isin(grown.radii, rows))
        assert grown.r_rows_evaluated - grown.radii.size == dropped
        # The rho audit takes one pass per range, over the final panels'
        # centre rows.
        assert len(audited) == len(grown.norm_history)
        assert np.array_equal(np.concatenate(audited),
                              grown.radii.reshape(-1, 15)[:, 7])
        # The first range alone: every range meets this tail target.
        monkeypatch.setattr(norms, "_TAIL_TOL", 1.0)
        first = converged_maximal_field(g, p)
        k = first.radii.size
        assert first.r_max == r0
        for name in ("radii", "weights", "sup_values", "argmax_t"):
            assert np.array_equal(getattr(grown, name)[:k],
                                  getattr(first, name))
        # Discarding the first range would evaluate its rows and a new grid.
        redo = first.r_rows_evaluated + kronrod_rule(
            norms._start_edges(g, r1, 0.0, r1))[0].size
        assert grown.r_rows_evaluated < redo


def test_chebyshev_degree_once_per_rho_rule(monkeypatch):
    # One degree for a segment's rule and one for its audit rule, however
    # many bisection rounds the segment takes.
    calls = {"degree": 0, "segment": 0, "pass": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for key, name in (("degree", "chebyshev_degree"),
                      ("segment", "_adaptive_panels"), ("pass", "propagator")):
        monkeypatch.setattr(norms, name, counted(key, getattr(norms, name)))
    p = SymbolParams(a=2.0, n=2)
    converged_maximal_field(sharpness_profile("shell", 32.0, p.a), p)
    assert calls["degree"] == 2 * calls["segment"]
    # Bisection rounds ran: more passes than one per rule.
    assert calls["pass"] > 2 * calls["segment"]


@pytest.mark.parametrize("a, n, N, range_kind", [(2.0, 2, 8.0, "global"),
                                                 (2.0, 2, 32.0, "global"),
                                                 (2.0, 4, 2.0, "global"),
                                                 (0.5, 2, 64.0, "local")])
def test_rho_audit_certifies_the_coarse_rule(monkeypatch, a, n, N, range_kind):
    # The rho rule at FREQUENCY_BUDGET moves the norm by no more than
    # rounding from the rule at quadrature.PHASE_BUDGET, and its audit says so.
    p = SymbolParams(a=a, n=n)
    g = sharpness_profile("shell", N, a)
    local = range_kind == "local"
    fld = converged_maximal_field(g, p, local=local)
    assert fld.r_converged and fld.rho_audit <= 1e-9
    monkeypatch.setattr(oscillatory, "FREQUENCY_BUDGET", PHASE_BUDGET)
    fine = converged_maximal_field(g, p, local=local)
    assert fine.rho_points > fld.rho_points
    norm, ref = (range_norm(f, p, range_kind) for f in (fld, fine))
    assert abs(norm - ref) <= 1e-12 * ref


def test_rho_audit_flags_a_coarse_rule(monkeypatch):
    # At 128 radians per panel the rho rule no longer resolves the kernel.
    monkeypatch.setattr(oscillatory, "FREQUENCY_BUDGET", 128.0)
    p = SymbolParams(a=2.0, n=2)
    fld = converged_maximal_field(sharpness_profile("shell", 64.0, p.a), p)
    assert fld.rho_audit > norms._REL_TOL / 10 and not fld.r_converged


def test_exhausted_growth_is_flagged(monkeypatch):
    # a tail target no range meets: four ranges, each row computed once
    monkeypatch.setattr(norms, "_TAIL_TOL", 0.0)
    p = SymbolParams(a=2.0, n=4)
    fld = converged_maximal_field(sharpness_profile("shell", 2.0, p.a), p)
    r_maxes = [h[0] for h in fld.norm_history]
    assert r_maxes[0] == pytest.approx(53.83, abs=0.01)
    assert r_maxes == pytest.approx([r_maxes[0] * 1.5 ** k for k in range(4)])
    assert fld.r_max == r_maxes[-1] and fld.radii[-1] < fld.r_max
    assert np.all(np.diff(fld.radii) > 0)
    assert not fld.r_converged and fld.t_converged


def test_under_resolved_field_is_flagged(coarse_radial_panels):
    p = SymbolParams(a=2.0, n=2)
    fld = converged_maximal_field(sharpness_profile("shell", 8.0, p.a), p)
    assert fld.t_converged and fld.tail_fraction < 1e-4
    assert fld.r_audit > 5e-3 and not fld.r_converged
    cfg = SweepConfig(a=p.a, n=p.n, s_list=(0.25,), N_list=(8.0,),
                      range_kind="global")
    [rec], _ = run_sweep(cfg, workers=0)
    assert not rec.diagnostics["converged"]
    assert rec.diagnostics["r_audit"] == fld.r_audit


def test_maximal_on_singleton_grid_is_time_slice():
    p = SymbolParams(a=2.0, n=2)
    g = gaussian(1.0)
    radii = np.linspace(0.0, 2.0, 41)
    rule = frequency_rule(g, p, r_max=2.0, t_max=0.0)
    sup, arg = grid_sup(propagator(g, p, radii, rule), np.array([0.0]))
    f_val = np.abs(dispersive_field(g, p, radii, 0.0, rho_rule=rule))
    assert sup == pytest.approx(f_val, rel=1e-12)
    assert np.all(arg == 0.0)


def test_refinement_monotonicity_pointwise():
    p = SymbolParams(a=2.0, n=2)
    g = annular(2.0)
    radii = np.linspace(0.0, 12.0, 97)
    rule = frequency_rule(g, p, r_max=12.0, t_max=1.0)
    coarse, _ = grid_sup(propagator(g, p, radii, rule),
                         np.arange(-(2 ** 4 - 1), 2 ** 4) / 2 ** 4)
    fine, _ = grid_sup(propagator(g, p, radii, rule),
                       np.arange(-(2 ** 5 - 1), 2 ** 5) / 2 ** 5)
    assert np.all(fine >= coarse - 1e-14)


def test_gaussian_center_sup_matches_dense_scan():
    # for r < 1 the closed form |u(r, t)| is maximized at t = 0, which the
    # dyadic grid contains; cross-check the discrete sup at the innermost
    # radial node against a dense scan
    p = SymbolParams(a=2.0, n=2)
    g = gaussian(1.0)
    radii, _ = panel_rule(phase_breakpoints(0.0, 2.0, panel_cap=0.25,
                                            forced=(1.0,)), 8)
    layer = propagator(g, p, radii, frequency_rule(g, p, r_max=2.0, t_max=1.0))
    sups, args = grid_sup(layer, np.arange(-(2 ** 6 - 1), 2 ** 6) / 2 ** 6)
    r0, sup, arg = radii[0], sups[0], args[0]
    assert r0 < 1e-2
    dense = np.abs(gaussian_free_evolution(1.0, p, r0, np.linspace(-0.9999, 0.9999, 10001)))
    assert arg == 0.0
    assert sup <= dense.max() * (1 + 1e-10)
    assert sup == pytest.approx(abs(gaussian_free_evolution(1.0, p, r0, 0.0)), rel=1e-10)


def test_range_norm_zero_field():
    p = SymbolParams(a=2.0, n=2)
    radii = np.linspace(0.0, 3.0, 100)
    fld = MaximalField(p=p, radii=radii, weights=np.full(100, 0.03),
                       sup_values=np.zeros(100), argmax_t=np.zeros(100),
                       t_grid=TimeGrid(points=np.array([0.0])), r_max=3.0,
                       tail_fraction=0.0)
    assert range_norm(fld, p, "global") == 0.0
    assert range_norm(fld, p, "local") == 0.0


def test_local_never_exceeds_global():
    p = SymbolParams(a=0.5, n=2)
    g = annular(4.0)
    fld = converged_maximal_field(g, p, local=False)
    assert range_norm(fld, p, "local") <= range_norm(fld, p, "global") + 1e-14


def test_degenerate_grid_recovers_l2_norm():
    # with the time grid {0} the sup field is |f| and the global norm is ||f||
    p = SymbolParams(a=2.0, n=2)
    g = gaussian(1.0)
    # panels resolve the full kernel oscillation, as one time cannot smooth it
    radii, weights = oscillatory_rule(0.0, 14.0,
                                      linear_rate=2.0 * g.truncation_radius(2),
                                      panel_cap=0.5, forced=(1.0,))
    layer = propagator(g, p, radii, frequency_rule(g, p, r_max=14.0, t_max=0.0))
    sup, arg = grid_sup(layer, np.array([0.0]))
    fld = MaximalField(p=p, radii=radii, weights=weights, sup_values=sup,
                       argmax_t=arg, t_grid=TimeGrid(points=np.array([0.0])),
                       r_max=14.0, tail_fraction=0.0)
    norm = range_norm(fld, p, "global")
    assert norm == pytest.approx(sobolev_norm(g, 2, 0.0), abs=1e-5)


def test_global_norm_dominates_l2_when_zero_in_grid():
    p = SymbolParams(a=2.0, n=2)
    g = annular(2.0)
    fld = converged_maximal_field(g, p, local=False)
    assert 0.0 in fld.t_grid.points
    assert range_norm(fld, p, "global") >= sobolev_norm(g, 2, 0.0) - 1e-4


@pytest.mark.parametrize("s", [0.25, 0.5, 1.0])
def test_sobolev_annular_bracket(s):
    N = 8.0
    g = annular(N)
    ratio = sobolev_norm(g, 2, s) / sobolev_norm(g, 2, 0.0)
    assert (1.0 + N ** 2 / 4.0) ** (s / 2.0) <= ratio <= (1.0 + 4.0 * N ** 2) ** (s / 2.0)


def test_sobolev_gaussian_against_direct_quadrature():
    # independent check: 2-D polar quadrature of (1+rho^2)|ghat|^2
    g = gaussian(1.0)
    rho = np.linspace(0.0, 12.0, 200001)
    dens = (1.0 + rho ** 2) * np.exp(-rho ** 2) * rho
    direct = math.sqrt(2.0 * math.pi * np.trapezoid(dens, rho)) / (2.0 * math.pi)
    assert sobolev_norm(g, 2, 1.0) == pytest.approx(direct, rel=1e-7)


@given(st.floats(min_value=-0.99, max_value=0.99))
@settings(max_examples=20, deadline=None)
def test_modulation_preserves_sobolev_norm(y):
    g = annular(4.0)
    s = 0.37
    assert sobolev_norm(g.modulate(y), 2, s) == pytest.approx(
        sobolev_norm(g, 2, s), rel=1e-10)


def test_exponent_fit_constant_is_zero():
    Ns = [2.0, 4.0, 8.0, 16.0]
    assert abs(exponent_fit(Ns, [3.7] * 4)) <= 1e-12


@given(st.floats(min_value=-1.0, max_value=1.0))
@settings(max_examples=25, deadline=None)
def test_exponent_fit_recovers_power(alpha):
    Ns = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
    vals = 1.7 * Ns ** alpha
    assert exponent_fit(Ns, vals) == pytest.approx(alpha, abs=1e-9)


def test_exponent_fit_needs_four_points():
    with pytest.raises(ValueError):
        exponent_fit([2.0, 4.0, 8.0], [1.0, 2.0, 3.0])


def test_modulated_average_single_point_reduces_to_local_ratio():
    p = SymbolParams(a=0.5, n=2, s=0.1)
    N = 4.0
    # y_count = 1 puts the single modulation at y = 0
    cfg = SweepConfig(a=p.a, n=p.n, s_list=(p.s,), N_list=(N,),
                      range_kind="local", modulated=True, y_count=1)
    [rec], _ = run_sweep(cfg, workers=0)
    g = sharpness_profile("shell", N, p.a)
    fld = converged_maximal_field(g.modulate(0.0), p, local=True)
    q_local = range_norm(fld, p, "local") / sobolev_norm(g, 2, p.s)
    assert rec.A == pytest.approx(q_local ** 2, rel=1e-12)


@pytest.mark.parametrize("N", [4.0, 32.0])
def test_modulated_numerators_match_standalone_fields(N):
    p = SymbolParams(a=0.5, n=2)
    g = sharpness_profile("shell", N, p.a)
    y = SweepConfig(a=p.a, n=p.n, s_list=(0.1,), N_list=(N,),
                    range_kind="local", modulated=True, y_count=8).y_grid()
    nums, fields = modulated_numerators(g, p, y)
    assert len(fields) == y.size
    for v, num in zip(y, nums):
        fld = converged_maximal_field(g.modulate(float(v)), p, local=True)
        assert num == pytest.approx(range_norm(fld, p, "local") ** 2, rel=1e-10)


def test_modulated_average_symmetric_under_conjugation():
    # real profile: u_{-y}(r, t) = conj(u_y(r, -t)), so the numerators are
    # even in y and the maximizing times odd, exactly
    p = SymbolParams(a=0.5, n=2, s=0.1)
    g = sharpness_profile("shell", 4.0, p.a)
    nums, (minus, plus) = modulated_numerators(g, p, [-0.35, 0.35])
    assert nums[0] == nums[1]
    assert np.array_equal(minus.sup_values, plus.sup_values)
    assert np.array_equal(minus.argmax_t, -plus.argmax_t)


def test_complex_profile_takes_each_modulation_alone():
    # e^{-iy rho} g is not conj(e^{iy rho} g) for a complex g: no pairing
    p = SymbolParams(a=0.5, n=2)
    g = shell(4.0, 2.0).modulate(0.2)
    y = [-0.35, 0.35]
    nums, _ = modulated_numerators(g, p, y)
    assert abs(nums[0] - nums[1]) > 1e-3 * nums[1]
    for v, num in zip(y, nums):
        fld = converged_maximal_field(g.modulate(v), p, local=True)
        assert num == pytest.approx(range_norm(fld, p, "local") ** 2, rel=1e-10)


@pytest.mark.parametrize("y_count", [8, 7])
def test_mirrored_modulations_share_one_stacked_pass(monkeypatch, y_count):
    stacks = []
    original = norms._adaptive_panels

    def recording(g, *args, **kw):
        stacks.append(len(g))
        return original(g, *args, **kw)

    monkeypatch.setattr(norms, "_adaptive_panels", recording)
    p = SymbolParams(a=0.5, n=2)
    y = SweepConfig(a=p.a, n=p.n, s_list=(0.1,), N_list=(4.0,),
                    range_kind="local", modulated=True, y_count=y_count).y_grid()
    nums, _ = modulated_numerators(sharpness_profile("shell", 4.0, p.a), p, y)
    assert stacks == [4]
    assert np.array_equal(nums, nums[::-1])


def test_modulation_grid_is_mirrored():
    for y_count in range(1, 33):
        y = SweepConfig(a=0.5, n=2, s_list=(0.1,), N_list=(4.0,),
                        range_kind="local", modulated=True,
                        y_count=y_count).y_grid()
        assert y.size == y_count
        assert np.array_equal(y, -y[::-1])
        if y_count in (1, 2, 4, 8, 16, 32):
            # the midpoint grid of earlier releases, bit for bit
            old = np.linspace(-1.0 + 1.0 / y_count, 1.0 - 1.0 / y_count, y_count)
            assert y.tobytes() == old.tobytes()


def test_modulated_average_rejects_large_a():
    with pytest.raises(ValueError):
        SweepConfig(a=2.0, n=2, s_list=(0.1,), N_list=(4.0,),
                    range_kind="local", modulated=True, y_count=1)


def test_ratio_bounded_far_above_threshold(a2_global_shell_sweep):
    # a regularity a whole derivative above the threshold: the ratio shows
    # no growth at all, staying within a factor 2 of its base-scale value
    records, _, _ = a2_global_shell_sweep
    sub = sorted((r for r in records if r.p.s == 1.5), key=lambda r: r.N)
    qs = [r.Q for r in sub]
    assert len(qs) == 7
    assert max(qs) <= 2.0 * qs[0]


def test_ratio_monotone_below_threshold(a2_global_shell_sweep):
    # below the threshold the designated family's ratio climbs monotonically
    records, _, _ = a2_global_shell_sweep
    sub = sorted((r for r in records if r.p.s == 0.25), key=lambda r: r.N)
    qs = [r.Q for r in sub]
    assert len(qs) == 7
    assert all(b > a for a, b in zip(qs, qs[1:]))


def test_sharpness_profile_families():
    g = sharpness_profile("shell", 16.0, 2.0)
    assert g.support == pytest.approx((15.0, 17.0))
    g2 = sharpness_profile("annular", 16.0, 2.0)
    assert g2.support == (8.0, 32.0)
    with pytest.raises(ValueError):
        sharpness_profile("unknown", 4.0, 2.0)


def test_non_decaying_profile_is_a_numerical_failure():
    # The CLI maps NumericalFailure to exit 4 and other ValueErrors to exit 2.
    flat = Profile(fn=np.ones_like, support=None, scale=1.0)
    with pytest.raises(NumericalFailure, match="does not appear to decay"):
        flat.truncation_radius(2)
