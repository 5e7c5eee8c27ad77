import numpy as np
import pytest

from oscillax.profiles import annular, shell
from oscillax.quadrature import (PHASE_BUDGET, gl_panels, grid_panels,
                                 kronrod_rule, oscillatory_rule)
from oscillax.radial import profile_rule
from oscillax.split import selector_grid

EDGES = np.array([0.0, 0.3, 1.0, 2.5])


def _per_panel(values):
    return values.reshape(EDGES.size - 1, 15).sum(axis=1)


def test_kronrod_rule_layout():
    nodes, k_w, g_w = kronrod_rule(EDGES)
    assert nodes.shape == k_w.shape == g_w.shape == (15 * (EDGES.size - 1),)
    assert np.all(np.diff(nodes) > 0)
    assert np.all((nodes > EDGES[0]) & (nodes < EDGES[-1]))
    panels = g_w.reshape(-1, 15)
    # The eight Kronrod-only nodes carry no G7 weight; the Gauss ones do.
    assert np.all(panels[:, ::2] == 0.0) and np.all(panels[:, 1::2] > 0.0)
    # The Gauss subset is the 7-point Gauss-Legendre rule.
    x7, w7 = np.polynomial.legendre.leggauss(7)
    lo, hi = EDGES[0], EDGES[1]
    assert nodes[1:15:2] == pytest.approx(lo + 0.5 * (hi - lo) * (1 + x7),
                                          rel=1e-15, abs=1e-16)
    assert panels[0, 1::2] == pytest.approx(0.5 * (hi - lo) * w7, rel=1e-14)


@pytest.mark.parametrize("weights, degree", [(1, 22), (2, 13)])
def test_kronrod_rule_exact_degree(weights, degree):
    # K15 integrates polynomials of degree 22 exactly, its G7 subset degree 13.
    rule = kronrod_rule(EDGES)
    nodes, w = rule[0], rule[weights]
    exact = (EDGES[1:] ** (degree + 1) - EDGES[:-1] ** (degree + 1)) / (degree + 1)
    got = _per_panel(w * nodes ** degree)
    assert np.all(np.abs(got - exact) <= 1e-13 * exact)


def test_kronrod_rule_rejects_bad_edges():
    for edges in ([1.0], [0.0, 1.0, 1.0], [[0.0, 1.0]]):
        with pytest.raises(ValueError):
            kronrod_rule(edges)


def test_rules_default_to_the_phase_budget():
    # Only oscillatory.frequency_rule changes the budget: every other rule
    # keeps PHASE_BUDGET, bit for bit.
    calls = [(oscillatory_rule, (0.0, 40.0),
              dict(linear_rate=7.5, power_coeff=0.8, power=2.0,
                   panel_cap=0.6, forced=(1.0,))),
             (profile_rule, (shell(16.0, 2.0), 2),
              dict(osc_rate=30.0, power_coeff=1.0, power=0.5)),
             (profile_rule, (annular(4.0).modulate(0.5), 3),
              dict(osc_rate=20.0))]
    for fn, args, kwargs in calls:
        default = fn(*args, **kwargs)
        explicit = fn(*args, **kwargs, budget=PHASE_BUDGET)
        coarse = fn(*args, **kwargs, budget=4.0 * PHASE_BUDGET)
        for a, b in zip(default, explicit):
            assert np.array_equal(a, b)
        assert coarse[0].size < default[0].size


@pytest.mark.parametrize("r_max, rho_max", [(12.0, 8.0), (12.0, 22.0),
                                            (45.0, 22.0), (30.0, 20.0),
                                            (40.0, 20.0)])
def test_gl_panels_recover_the_selector_grids(r_max, rho_max):
    # Every node within an ulp of mid + half ref; mid and half within a few
    # ulps of the breakpoints' own, which the grid does not keep.
    nodes, _ = selector_grid(r_max, rho_max)
    mid, half, ref = gl_panels(nodes)
    assert mid.size * ref.size == nodes.size
    panel = nodes.reshape(-1, 16)
    assert np.all(np.abs(mid[:, None] + half[:, None] * ref - panel)
                  <= np.spacing(panel[:, -1])[:, None])
    assert np.all(np.diff(mid) > 0.0) and np.all(half > 0.0)
    lo, hi = mid - half, mid + half
    assert np.abs(hi[:-1] - lo[1:]).max() <= 8 * np.spacing(r_max)
    assert abs(lo[0]) <= 8 * np.spacing(1.0)
    assert abs(hi[-1] - r_max) <= 8 * np.spacing(r_max)


def test_gl_panels_reject_what_is_not_a_gl_rule():
    assert gl_panels(np.linspace(0.0, 1.0, 64)) is None
    nodes, _ = selector_grid(12.0, 8.0)
    assert gl_panels(nodes[:-1]) is None
    assert gl_panels(nodes[1:-15]) is None


def test_grid_panels_hold_a_uniform_grid():
    # The rows of np.linspace(0, R, size) are within an ulp of the panels'
    # mid + half ref, the last panel holding size % 16 rows.
    for size in (512, 513, 769, 1025):
        for length in (4.0, 8.0, 16.0, 37.3):
            grid = np.linspace(0.0, length, size)
            mid, half, ref = grid_panels(length / (size - 1),
                                         np.arange(0, size, 16))
            rows = (mid[:, None] + half[:, None] * ref).ravel()[:size]
            assert np.all(np.abs(rows - grid) <= np.spacing(grid.max()))
