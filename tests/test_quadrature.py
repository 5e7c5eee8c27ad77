import numpy as np
import pytest

from oscillax.profiles import annular, shell
from oscillax.quadrature import PHASE_BUDGET, kronrod_rule, oscillatory_rule
from oscillax.radial import profile_rule

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
