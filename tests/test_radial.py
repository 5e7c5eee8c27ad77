import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import oscillax.radial as radial
from oscillax.bessel import bessel_kernel_reduced
from oscillax.norms import TimeGrid, compute_maximal_field
from oscillax.oscillatory import (SymbolParams, dispersive_field,
                                  frequency_rule, gaussian_free_evolution,
                                  propagator)
from oscillax.profiles import Profile, annular, bump, gaussian, sampled
from oscillax.radial import (bernstein_bound, chebyshev_degree,
                             chebyshev_times, hankel_fourier,
                             l2_norm_frequency, l2_norm_spatial, nd_oracle,
                             profile_rule, sphere_factor)


def test_sphere_factors():
    assert sphere_factor(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sphere_factor(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert sphere_factor(4) == pytest.approx(2.0 * math.pi ** 2, rel=1e-15)


@pytest.mark.parametrize("n", [2, 3])
def test_gaussian_closed_form(n):
    g = gaussian(1.0)
    rho = np.array([0.0, 0.3, 1.0, 2.5, 5.0])
    vals = hankel_fourier(g, n, rho)
    ref = (2.0 * math.pi) ** (n / 2.0) * np.exp(-rho ** 2 / 2.0)
    assert np.abs(vals - ref).max() <= 1e-8 * np.abs(ref).max()


def test_transform_at_zero_is_total_integral():
    # fhat(0) = surface factor times int f0 r^(n-1) dr
    f0 = bump(1.0, 0.5)
    r, w = profile_rule(f0, 3)
    direct = sphere_factor(3) * float(np.sum(w * f0(r) * r ** 2))
    assert hankel_fourier(f0, 3, 0.0) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("n,rho", [(2, 0.7), (2, 3.0), (3, 0.7), (3, 5.0)])
def test_bump_matches_oracle(n, rho):
    f0 = bump(1.0, 0.7)
    hv = hankel_fourier(f0, n, rho)
    ov = nd_oracle(f0, n, rho)
    assert abs(hv - ov) <= 1e-6 * abs(ov)


def test_oracle_zero_profile():
    zero = Profile(kind="zero", params={}, fn=lambda r: np.zeros_like(r),
                   support=(0.0, 1.0), scale=0.5)
    assert nd_oracle(zero, 2, 1.0) == 0.0


def test_oracle_rotation_invariance():
    f0 = bump(1.0, 0.7)
    v1 = nd_oracle(f0, 2, np.array([1.3, 0.0]))
    v2 = nd_oracle(f0, 2, np.array([0.0, 1.3]))
    assert abs(v1 - v2) <= 1e-10


def test_oracle_rejects_large_dimension():
    with pytest.raises(ValueError):
        nd_oracle(gaussian(1.0), 4, 1.0)


@pytest.mark.parametrize("n", [2, 3])
def test_parseval(n):
    # ||fhat||^2 = (2 pi)^n ||f||^2, checked radially for the unit gaussian
    g_spatial = gaussian(1.0)
    ghat = Profile(kind="gaussian-hat", params={},
                   fn=lambda rho, c=(2.0 * math.pi) ** (n / 2.0):
                       c * np.exp(-rho * rho / 2.0),
                   support=None, scale=1.0)
    lhs = l2_norm_frequency(ghat, n)
    rhs = l2_norm_spatial(g_spatial, n)
    assert lhs == pytest.approx(rhs, rel=1e-6)


@given(st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=10, deadline=None)
def test_linearity(alpha, beta):
    f1 = bump(1.0, 0.5)
    f2 = bump(2.0, 0.8)
    combo = f1.scaled(alpha).plus(f2.scaled(beta))
    rho = 1.7
    lhs = hankel_fourier(combo, 2, rho)
    rhs = alpha * hankel_fourier(f1, 2, rho) + beta * hankel_fourier(f2, 2, rho)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_sampled_profile_roundtrip():
    grid = np.linspace(0.5, 4.0, 60)
    base = annular(1.5)
    prof = sampled(grid, base(grid))
    rho = 1.2
    dense = hankel_fourier(base, 2, rho)
    approx = hankel_fourier(prof, 2, rho)
    assert approx == pytest.approx(dense, rel=5e-4)


def test_sampled_requires_increasing_grid():
    with pytest.raises(ValueError):
        sampled(np.array([1.0, 0.5, 2.0, 3.0]), np.ones(4))


def test_divergent_profile_rejected():
    flat = Profile(kind="flat", params={}, fn=lambda r: np.ones_like(r),
                   support=None, scale=1.0)
    with pytest.raises(ValueError):
        hankel_fourier(flat, 2, 1.0)


@pytest.fixture
def kernel_blocks(monkeypatch):
    """Shapes of the kernel blocks the radial layer evaluates."""
    shapes = []
    original = radial.bessel_kernel_reduced

    def recorded(lam, z):
        shapes.append(np.shape(z))
        return original(lam, z)

    monkeypatch.setattr(radial, "bessel_kernel_reduced", recorded)
    return shapes


def _split_rows_in_three(monkeypatch, shape):
    rows, cols = shape
    monkeypatch.setattr(radial, "_KERNEL_BYTES", 8 * cols * -(-rows // 3))


def test_row_blocks_reproduce_single_block_field(monkeypatch, kernel_blocks):
    g = annular(4.0)
    p = SymbolParams(a=2.0, n=2)
    r = np.linspace(0.0, 6.0, 50)
    t = np.linspace(-0.9, 0.9, 7)
    rule = frequency_rule(g, p, r_max=6.0, t_max=0.9)
    whole = dispersive_field(g, p, r, t, rho_rule=rule)
    assert len(kernel_blocks) == 1
    _split_rows_in_three(monkeypatch, kernel_blocks.pop())
    blocked = dispersive_field(g, p, r, t, rho_rule=rule)
    assert len(kernel_blocks) >= 3
    assert sum(rows for rows, _ in kernel_blocks) == r.size
    assert np.abs(blocked - whole).max() <= 1e-12 * np.abs(whole).max()


def test_row_blocks_reproduce_single_block_maximal_field(monkeypatch,
                                                         kernel_blocks):
    g = annular(4.0)
    p = SymbolParams(a=2.0, n=2)
    whole = compute_maximal_field(g, p, TimeGrid.dyadic(4), r_max=3.0)
    assert len(kernel_blocks) == 1
    _split_rows_in_three(monkeypatch, kernel_blocks.pop())
    blocked = compute_maximal_field(g, p, TimeGrid.dyadic(4), r_max=3.0)
    assert len(kernel_blocks) >= 3
    assert np.abs(blocked.sup_values - whole.sup_values).max() <= \
        1e-12 * whole.sup_values.max()
    np.testing.assert_array_equal(blocked.argmax_t, whole.argmax_t)


def test_row_chunks_reproduce_single_block_chebyshev_sup(monkeypatch,
                                                         kernel_blocks):
    g = annular(4.0)
    p = SymbolParams(a=2.0, n=2)
    r = np.linspace(0.0, 6.0, 50)
    rule = frequency_rule(g, p, r_max=6.0, t_max=1.0)
    whole = propagator(g, p, r, rule)
    degree = chebyshev_degree(whole.tau, 1e-6, 2 ** 13)
    whole.chebyshev_sup(degree)
    assert len(kernel_blocks) == 1
    rows, cols = kernel_blocks.pop()
    _split_rows_in_three(monkeypatch, (rows, cols))
    # The phase matrix no longer fits under the cap, and each block runs in
    # two-row chunks.
    assert 16 * cols * (degree + 1) > radial._KERNEL_BYTES
    monkeypatch.setattr(radial, "_SAMPLE_BYTES",
                        2 * (8 * cols + 16 * (radial._DENSE * degree + 1)))
    chunked = propagator(g, p, r, rule)
    chunked.chebyshev_sup(degree)
    assert len(kernel_blocks) >= 3
    for name in ("sup", "bound"):
        a, b = getattr(chunked, name), getattr(whole, name)
        assert np.abs(a - b).max() <= 1e-12 * b.max()
    np.testing.assert_allclose(chunked.arg, whole.arg, atol=1e-12)


@pytest.mark.parametrize("lam", [-0.5, 0.0, 0.5, 1.0])
def test_kernel_blocks_equal_one_whole_kernel(monkeypatch, lam):
    x = np.linspace(0.0, 6.0, 50)
    nodes = np.linspace(0.1, 40.0, 64)
    whole = bessel_kernel_reduced(lam, np.outer(x, nodes))
    _split_rows_in_three(monkeypatch, whole.shape)
    layer = radial.RadialKernel(lam, x, nodes, np.ones(nodes.size), nodes)
    assert len(layer.blocks) >= 3
    np.testing.assert_array_equal(
        np.concatenate([block for _, block in layer.blocks]), whole)


def test_rebased_layer_matches_a_fresh_layer():
    g = annular(4.0)
    p = SymbolParams(a=2.0, n=2)
    r = np.linspace(0.0, 1.0, 12)
    rule = frequency_rule(g.modulate(0.5), p, r_max=2.5, t_max=1.0)
    layer = propagator(g, p, r, rule)
    t = np.linspace(-1.0, 1.0, 9)
    for y in (-0.5, 0.25):
        gy = g.modulate(y)
        twin = propagator(gy, p, r, rule, like=layer)
        assert twin.blocks is layer.blocks
        np.testing.assert_array_equal(twin.field(t),
                                      propagator(gy, p, r, rule).field(t))
    with pytest.raises(ValueError):
        layer.rebased(layer.base[1:])


def _gaussian_layer():
    """a = 2 propagator of gaussian(1.0) on 25 radii in [0, 6], with its rule."""
    g = gaussian(1.0)
    p = SymbolParams(a=2.0, n=2)
    radii = np.linspace(0.0, 6.0, 25)
    rule = frequency_rule(g, p, r_max=6.0, t_max=1.0)
    return p, radii, rule, propagator(g, p, radii, rule)


def _closed_form_sup(p, r):
    """max over t in [-1, 1] of the Gaussian closed form: dense scan, then a
    bounded search between the neighbours of the best scan point."""
    t = np.linspace(-1.0, 1.0, 20001)
    mag = np.abs(gaussian_free_evolution(1.0, p, r, t))
    j = int(np.argmax(mag))
    res = minimize_scalar(lambda s: -abs(gaussian_free_evolution(1.0, p, r, s)),
                          bounds=(t[max(j - 1, 0)], t[min(j + 1, t.size - 1)]),
                          method="bounded", options={"xatol": 1e-12})
    return max(mag[j], -res.fun)


def test_chebyshev_sup_matches_gaussian_closed_form():
    p, radii, _, layer = _gaussian_layer()
    layer.chebyshev_sup(chebyshev_degree(layer.tau, 1e-6, 2 ** 13))
    ref = np.array([_closed_form_sup(p, r) for r in radii])
    assert layer.sup == pytest.approx(ref, rel=1e-6)


def test_chebyshev_sup_dominates_dyadic_grid_sup():
    _, radii, _, layer = _gaussian_layer()
    layer.chebyshev_sup(chebyshev_degree(layer.tau, 1e-6, 2 ** 13))
    _, _, _, grid = _gaussian_layer()
    grid.add_times(TimeGrid.dyadic(6).points)
    # Up to the certified interpolation error on each row.
    assert np.all(layer.sup >= grid.sup - layer.bound)


def test_chebyshev_times_symmetric_with_zero():
    t = chebyshev_times(12)
    assert t.size == 13 and t[0] == 1.0 and t[-1] == -1.0
    np.testing.assert_array_equal(t, -t[::-1])
    assert t[6] == 0.0
    np.testing.assert_allclose(t, np.cos(np.pi * np.arange(13) / 12), atol=1e-15)


def test_bernstein_bound_covers_exponential_interpolation_error():
    # e^{i tau t}: A = 1, so the bound caps the interpolation error itself
    tau = 20.0
    for deg in (24, 32, 40):
        t = chebyshev_times(deg)
        coef = np.polynomial.chebyshev.chebfit(t, np.exp(1j * tau * t), deg)
        x = np.linspace(-1.0, 1.0, 4001)
        err = np.max(np.abs(np.polynomial.chebyshev.chebval(x, coef) - np.exp(1j * tau * x)))
        assert err <= bernstein_bound(tau, deg)
    assert chebyshev_degree(tau, 1e-6, 2 ** 13) % 2 == 0
    assert chebyshev_degree(tau, 1e-300, 64) == 64
