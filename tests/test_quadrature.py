import numpy as np
import pytest

from oscillax.quadrature import kronrod_rule

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
