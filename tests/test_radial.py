import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oscillax.radial as radial
from oscillax.norms import TimeGrid, compute_maximal_field
from oscillax.oscillatory import SymbolParams, dispersive_field, frequency_rule
from oscillax.profiles import Profile, annular, bump, gaussian, sampled
from oscillax.radial import (hankel_fourier, l2_norm_frequency,
                             l2_norm_spatial, nd_oracle, profile_rule,
                             sphere_factor)


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
