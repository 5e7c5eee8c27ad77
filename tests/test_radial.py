import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import mpmath

import oscillax.radial as radial
from oscillax.bessel import HANKEL_Z0, bessel_kernel_reduced
from oscillax.cutoffs import psi
from oscillax.norms import (converged_maximal_field, range_norm,
                            sharpness_profile)
from oscillax.oscillatory import (SymbolParams, dispersive_field,
                                  frequency_rule, gaussian_free_evolution,
                                  propagator)
from oscillax.profiles import (Profile, annular, bandlimited, bump, gaussian,
                               sampled)
from oscillax.quadrature import KRONROD_NODES, panel_centres
from oscillax.radial import (bernstein_bound, chebyshev_degree,
                             chebyshev_times, hankel_fourier, nd_oracle,
                             profile_rule, sobolev_norm, sphere_factor)
from oscillax.split import TimeSelector, random_test_profile, selector_grid

from conftest import grid_sup


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
    ov = nd_oracle(f0, n, np.array([rho] + [0.0] * (n - 1)))
    assert abs(hv - ov) <= 1e-6 * abs(ov)


def test_oracle_zero_profile():
    zero = Profile(fn=lambda r: np.zeros_like(r),
                   support=(0.0, 1.0), scale=0.5)
    assert nd_oracle(zero, 2, np.array([1.0, 0.0])) == 0.0


def test_oracle_rotation_invariance():
    f0 = bump(1.0, 0.7)
    v1 = nd_oracle(f0, 2, np.array([1.3, 0.0]))
    v2 = nd_oracle(f0, 2, np.array([0.0, 1.3]))
    assert abs(v1 - v2) <= 1e-10


def test_oracle_rejects_large_dimension():
    with pytest.raises(ValueError):
        nd_oracle(gaussian(1.0), 4, np.array([1.0, 0.0, 0.0, 0.0]))


_ORACLE_PROFILES = {
    "bump": bump(1.0, 0.7),
    "gaussian": gaussian(1.0),
    "annular": annular(2.0),
    "bandlimited": bandlimited(3),
    # Nonzero at both ends of its closed support [0.5, 2].
    "sampled": sampled(np.linspace(0.5, 2.0, 7),
                       np.array([1.0, 0.4, -0.3, 0.8, 0.2, -0.5, 0.9])),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_PROFILES))
@pytest.mark.parametrize("rate", [0.0, 0.7, 6.0])
def test_axis_rule_is_mirror_symmetric(name, rate):
    x, w = radial._axis_rule(_ORACLE_PROFILES[name], 3, rate)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert np.all(np.diff(x) > 0.0)


def _full_box_oracle(f, n, rhos):
    """Unfolded sum over every node of the oracle's box at xi = (rho, 0, ...)."""
    x1, w1 = radial._axis_rule(f, n, float(np.max(rhos)))
    x2, w2 = radial._axis_rule(f, n, 0.0)
    if n == 2:
        h = f(np.hypot(x1[:, None], x2[None, :])) @ w2
    else:
        plane = np.hypot(x2[:, None], x2[None, :])
        wplane = np.outer(w2, w2)
        h = np.array([np.sum(f(np.sqrt(plane * plane + x * x)) * wplane)
                      for x in x1])
    return np.exp(-1j * np.outer(rhos, x1)) @ (w1 * h)


@pytest.mark.parametrize("name", sorted(_ORACLE_PROFILES))
@pytest.mark.parametrize("n", [2, 3])
def test_oracle_batch_fold_matches_full_box(name, n):
    # Summing each symmetry orbit once and clipping slices to the support
    # only regroups the full-box sum.  At n = 3 a scale of P (panels of
    # width P/2) keeps the full box small; the identity holds on any rule.
    f = _ORACLE_PROFILES[name]
    if n == 3:
        f = dataclasses.replace(f, scale=f.truncation_radius(n))
    rhos = np.array([0.0, 0.7, 2.5, 6.0])
    got = radial.nd_oracle_batch(f, n, rhos)
    ref = _full_box_oracle(f, n, rhos)
    assert got.dtype == np.complex128
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [2, 3])
def test_parseval(n):
    # ||fhat||^2 = (2 pi)^n ||f||^2, checked radially for the unit gaussian
    g_spatial = gaussian(1.0)
    ghat = Profile(fn=lambda rho, c=(2.0 * math.pi) ** (n / 2.0):
                       c * np.exp(-rho * rho / 2.0),
                   support=None, scale=1.0)
    # sobolev_norm at s = 0 is (2 pi)^(-n/2) times the L2 norm of its profile
    lhs = sobolev_norm(ghat, n, 0.0)
    rhs = (2.0 * math.pi) ** (n / 2.0) * sobolev_norm(g_spatial, n, 0.0)
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


def test_scipy_interpolate_loads_only_with_sampled():
    # Importing the package must not pull in scipy.interpolate (and with it
    # scipy.optimize and scipy.linalg); `sampled` imports it when called.
    src = Path(radial.__file__).resolve().parents[1]
    code = (
        "import json, sys\n"
        "import oscillax.sweep, oscillax.split, oscillax.cli, oscillax.radial\n"
        "assert 'scipy.interpolate' not in sys.modules, 'loaded at import'\n"
        "import numpy as np\n"
        "from oscillax.profiles import sampled\n"
        "g = sampled(np.linspace(1.0, 2.0, 5), np.linspace(1.0, 2.0, 5) ** 2)\n"
        "assert 'scipy.interpolate' in sys.modules\n"
        "print(json.dumps(g(np.array([0.5, 1.5, 2.5])).tolist()))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == pytest.approx([0.0, 2.25, 0.0], rel=1e-14)


def test_sampled_requires_increasing_grid():
    with pytest.raises(ValueError):
        sampled(np.array([1.0, 0.5, 2.0, 3.0]), np.ones(4))


def test_divergent_profile_rejected():
    flat = Profile(fn=lambda r: np.ones_like(r),
                   support=None, scale=1.0)
    with pytest.raises(ValueError):
        hankel_fourier(flat, 2, 1.0)


@pytest.fixture
def kernel_blocks(monkeypatch):
    """Shapes of the kernel chunks the radial layer evaluates."""
    shapes = []
    original = radial.bessel_kernel_reduced

    def recorded(lam, z):
        shapes.append(np.shape(z))
        return original(lam, z)

    monkeypatch.setattr(radial, "bessel_kernel_reduced", recorded)
    return shapes


def _split_rows_in_three(monkeypatch, shape):
    rows, cols = shape
    monkeypatch.setattr(radial, "_SAMPLE_BYTES", 8 * cols * -(-rows // 3))


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
    r = np.linspace(0.0, 3.0, 50)
    t = np.arange(-(2 ** 4 - 1), 2 ** 4) / 2 ** 4
    rule = frequency_rule(g, p, r_max=3.0, t_max=float(t[-1]))
    sup, arg = grid_sup(propagator(g, p, r, rule), t)
    assert len(kernel_blocks) == 1
    _split_rows_in_three(monkeypatch, kernel_blocks.pop())
    blocked_sup, blocked_arg = grid_sup(propagator(g, p, r, rule), t)
    assert len(kernel_blocks) >= 3
    assert np.abs(blocked_sup - sup).max() <= 1e-12 * sup.max()
    np.testing.assert_array_equal(blocked_arg, arg)


def test_row_chunks_reproduce_single_block_chebyshev_sup(monkeypatch,
                                                         kernel_blocks):
    g = annular(4.0)
    p = SymbolParams(a=2.0, n=2)
    r = np.linspace(0.0, 6.0, 50)
    rule = frequency_rule(g, p, r_max=6.0, t_max=1.0)
    layer = propagator(g, p, r, rule)
    degree = chebyshev_degree(layer.tau)
    sup, arg, bound = layer.chebyshev_sup(degree)
    assert len(kernel_blocks) == 1
    _, cols = kernel_blocks.pop()
    # The rows run in two-row chunks: the base is real, so its samples and
    # dense search take the times t >= 0 only.
    half = degree // 2
    monkeypatch.setattr(radial, "_SAMPLE_BYTES",
                        2 * (8 * cols + 16 * (half + 1)
                             + 16 * (radial._DENSE * half + 1)))
    chunked_sup, chunked_arg, chunked_bound = propagator(
        g, p, r, rule).chebyshev_sup(degree)
    assert len(kernel_blocks) >= 3
    for a, b in ((chunked_sup, sup), (chunked_bound, bound)):
        assert np.abs(a - b).max() <= 1e-12 * b.max()
    np.testing.assert_allclose(chunked_arg, arg, atol=1e-12)


@pytest.mark.parametrize("lam", [-0.5, 0.0, 0.5, 1.0])
def test_kernel_blocks_equal_one_whole_kernel(monkeypatch, lam):
    x = np.linspace(0.0, 6.0, 50)
    nodes = np.linspace(0.1, 40.0, 64)
    whole = bessel_kernel_reduced(lam, np.outer(x, nodes))
    chunks = []

    def recorded(lam, z):
        chunks.append(bessel_kernel_reduced(lam, z))
        return chunks[-1]

    monkeypatch.setattr(radial, "bessel_kernel_reduced", recorded)
    _split_rows_in_three(monkeypatch, whole.shape)
    radial.RadialKernel(lam, x, nodes, np.ones(nodes.size), nodes).field(
        np.zeros(1))
    assert len(chunks) >= 3
    np.testing.assert_array_equal(np.concatenate(chunks), whole)


def test_streamed_field_bounds_kernel_chunks(monkeypatch, kernel_blocks):
    # A global a = 2 field at N = 8 evaluates a 6328 x 816 fine kernel
    # (41 MB); with a 1 MB chunk cap no kernel call may exceed it, and
    # nothing the field reports may move.
    g = sharpness_profile("shell", 8.0, 2.0)
    p = SymbolParams(a=2.0, n=2)
    whole = converged_maximal_field(g, p)
    kernel_blocks.clear()
    monkeypatch.setattr(radial, "_SAMPLE_BYTES", 2 ** 20)
    chunked = converged_maximal_field(g, p)
    assert max(rows * cols for rows, cols in kernel_blocks) \
        <= radial._SAMPLE_BYTES // 8
    np.testing.assert_array_equal(chunked.sup_values, whole.sup_values)
    np.testing.assert_array_equal(chunked.argmax_t, whole.argmax_t)
    assert chunked.t_bound == whole.t_bound
    assert range_norm(chunked, p, "global") == range_norm(whole, p, "global")


def test_stacked_bases_match_single_base_layers():
    rng = np.random.default_rng(5)
    rho, w = frequency_rule(annular(4.0), SymbolParams(a=2.0, n=2),
                            r_max=6.0, t_max=1.0)
    x = np.linspace(0.0, 6.0, 50)
    bases = w * (rng.standard_normal((3, rho.size))
                 + 1j * rng.standard_normal((3, rho.size)))
    stacked = radial.RadialKernel(0.0, x, rho, bases, rho ** 2)
    singles = [radial.RadialKernel(0.0, x, rho, b, rho ** 2) for b in bases]
    t = np.linspace(-0.9, 0.9, 7)
    field = stacked.field(t)
    assert field.shape == (3, x.size, t.size)
    for i, single in enumerate(singles):
        np.testing.assert_array_equal(field[i], single.field(t))
    grid = np.arange(-(2 ** 4 - 1), 2 ** 4) / 2 ** 4
    degree = chebyshev_degree(stacked.tau)
    for method in (lambda layer: grid_sup(layer, grid),
                   lambda layer: layer.chebyshev_sup(degree)):
        together = method(stacked)
        assert all(v.shape == (3, x.size) for v in together)
        for i, single in enumerate(singles):
            for a, b in zip(together, method(single)):
                np.testing.assert_array_equal(a[i], b)


def test_phases_are_built_once_per_pass(monkeypatch):
    # Times in chunks of 4 columns and rows in three chunks: each column
    # chunk's phases are built once, as one real (B, J, 2 times) stack with
    # the real and imaginary parts interleaved, and serve every row chunk.
    rng = np.random.default_rng(7)
    rho, w = frequency_rule(annular(4.0), SymbolParams(a=2.0, n=2),
                            r_max=6.0, t_max=1.0)
    x = np.linspace(0.0, 6.0, 50)
    bases = w * (rng.standard_normal((2, rho.size))
                 + 1j * rng.standard_normal((2, rho.size)))
    layer = radial.RadialKernel(0.0, x, rho, bases, rho ** 2)
    t = np.linspace(-0.9, 0.9, 9)
    whole = layer.field(t)
    built = []
    original = layer._phases

    def phases(t_cols, power):
        m = original(t_cols, power)
        assert m.shape == (2, rho.size, 2 * t_cols.size) and m.dtype == float
        built.append(t_cols.size)
        return m

    monkeypatch.setattr(layer, "_phases", phases)
    monkeypatch.setattr(radial, "_T_CHUNK", 4)
    # Kernel rows and samples of 17 rows per chunk: 50 rows in three.
    row_bytes = 8 * rho.size + 16 * 2 * t.size
    monkeypatch.setattr(radial, "_SAMPLE_BYTES", 17 * row_bytes)
    assert len(radial.row_chunks(x.size, row_bytes)) == 3
    chunked = layer.field(t)
    assert built == [4, 4, 1]
    assert np.abs(chunked - whole).max() <= 1e-13 * np.abs(whole).max()


@pytest.mark.parametrize("rows, row_bytes", [
    (50, 2 ** 20), (1000, 2 ** 16), (1000, 2 ** 24), (734, 64 * 913),
    (3, 2 ** 30), (0, 8),
])
def test_row_chunks_cover_every_row_once_under_the_cap(rows, row_bytes):
    chunks = radial.row_chunks(rows, row_bytes)
    assert [i for c in chunks for i in range(rows)[c]] == list(range(rows))
    assert all(c.stop > c.start for c in chunks)
    cap = max(1, radial._SAMPLE_BYTES // row_bytes)
    assert all(c.stop - c.start <= cap for c in chunks)
    assert (len(chunks) == 0) == (rows == 0)


def test_stacked_propagator_matches_fresh_propagators():
    g = annular(4.0)
    p = SymbolParams(a=2.0, n=2)
    r = np.linspace(0.0, 1.0, 12)
    rule = frequency_rule(g.modulate(0.5), p, r_max=2.5, t_max=1.0)
    t = np.linspace(-1.0, 1.0, 9)
    ys = (-0.5, 0.25)
    stacked = propagator([g.modulate(y) for y in ys], p, r, rule)
    assert stacked.base.shape == (len(ys), rule[0].size)
    field = stacked.field(t)
    for i, y in enumerate(ys):
        np.testing.assert_array_equal(
            field[i], propagator(g.modulate(y), p, r, rule).field(t))
    with pytest.raises(ValueError):
        radial.RadialKernel(p.lam, r, rule[0], stacked.base[:, 1:],
                            stacked.power)


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
    sup, _, _ = layer.chebyshev_sup(chebyshev_degree(layer.tau))
    ref = np.array([_closed_form_sup(p, r) for r in radii])
    assert sup == pytest.approx(ref, rel=1e-6)


def test_chebyshev_sup_dominates_dyadic_grid_sup():
    layer = _gaussian_layer()[3]
    degree = chebyshev_degree(layer.tau)
    sup, _, bound = layer.chebyshev_sup(degree)
    grid, _ = grid_sup(layer, np.arange(-(2 ** 6 - 1), 2 ** 6) / 2 ** 6)
    # Up to the certified interpolation error on each row.
    assert np.all(sup >= grid - bound)


def test_chebyshev_times_symmetric_with_zero():
    t = chebyshev_times(12)
    assert t.size == 13 and t[0] == 1.0 and t[-1] == -1.0
    np.testing.assert_array_equal(t, -t[::-1])
    assert t[6] == 0.0
    np.testing.assert_allclose(t, np.cos(np.pi * np.arange(13) / 12), atol=1e-15)


def test_chebyshev_times_put_exact_zero_at_the_middle():
    # A real layer's half search takes chebyshev_times(K)[:K // 2 + 1] and
    # relies on its last time being t = 0 exactly.
    for deg in range(2, 2 ** 13 + 1, 2):
        assert chebyshev_times(deg)[deg // 2] == 0.0, deg


def _real_layer(seed=5):
    """A lam = 0 layer with a real base: 40 radii in [0, 3], 60 random nodes
    in [0.5, 4] with powers in [-40, 40]."""
    rng = np.random.default_rng(seed)
    nodes = rng.uniform(0.5, 4.0, 60)
    return radial.RadialKernel(0.0, np.linspace(0.0, 3.0, 40), nodes,
                               rng.standard_normal(60) / 60,
                               rng.uniform(-40.0, 40.0, 60))


def test_real_layer_half_search_matches_complex_copy():
    layer = _real_layer()
    twin = radial.RadialKernel(layer.lam, layer.x, layer.nodes,
                               layer.base.astype(complex), layer.power)
    degree = chebyshev_degree(layer.tau)
    sup, arg, bound = layer.chebyshev_sup(degree)
    full_sup, _, full_bound = twin.chebyshev_sup(degree)
    np.testing.assert_allclose(sup, full_sup, rtol=1e-9)
    np.testing.assert_allclose(bound, full_bound, rtol=1e-14)
    assert np.all((arg >= 0.0) & (arg <= 1.0))
    at_arg = np.abs(np.diagonal(layer.field(arg)))
    assert np.all(np.abs(at_arg - sup) <= bound)


def test_half_search_covers_dense_scan_of_real_exponential_sum():
    # At x = 0, k_0 = 1: the layer is u(t) = sum_j c_j e^{i q_j t}, c real.
    rng = np.random.default_rng(11)
    c, q = rng.standard_normal(30), rng.uniform(-60.0, 60.0, 30)
    layer = radial.RadialKernel(0.0, np.zeros(1), np.ones(30), c, q)
    sup, arg, bound = layer.chebyshev_sup(chebyshev_degree(layer.tau))
    t = np.linspace(-1.0, 1.0, 20001)
    scan = np.abs(np.exp(1j * np.outer(t, q)) @ c).max()
    assert 0.0 <= arg[0] <= 1.0
    assert scan - bound[0] <= sup[0] <= scan + bound[0]


def _assert_search_leaves_the_stationary_end_t_1(h, degree, phase):
    # Two packets peaked at t = +-t*, with t* = cos(0.3 h) for h the dense
    # spacing in theta of the search the layer takes: the best dense angle
    # is theta = 0, t = 1, where the slope of |p|^2 is 0, yet the peak of p
    # lies just inside.
    q = np.linspace(-60.0, 60.0, 121)
    c = np.exp(-(q / 30.0) ** 2) * np.cos(q * np.cos(0.3 * h)) * phase
    layer = radial.RadialKernel(0.0, np.zeros(1), np.ones(q.size), c, q)
    sup, arg, _ = layer.chebyshev_sup(degree)
    t = chebyshev_times(degree)
    coef = np.polynomial.chebyshev.chebfit(t, layer.field(t)[0], degree)
    peak = np.abs(np.polynomial.chebyshev.chebval(
        np.linspace(np.cos(h), 1.0, 2001), coef)).max()
    assert abs(layer.field(np.ones(1))[0, 0]) < (1.0 - 1e-10) * peak
    assert sup[0] >= (1.0 - 1e-12) * peak and np.cos(h) <= arg[0] < 1.0


def test_half_search_leaves_the_stationary_end_t_1():
    degree = chebyshev_degree(60.0)
    h = np.pi / (2 * scipy.fft.next_fast_len(radial._DENSE * degree // 2,
                                               real=True))
    _assert_search_leaves_the_stationary_end_t_1(h, degree, 1.0)


def test_full_search_leaves_the_stationary_end_t_1():
    # A complex base takes the full search, with its own dense spacing.
    degree = chebyshev_degree(60.0)
    h = np.pi / scipy.fft.next_fast_len(radial._DENSE * degree, real=True)
    _assert_search_leaves_the_stationary_end_t_1(h, degree, np.exp(0.4j))


def test_bernstein_bound_covers_exponential_interpolation_error(monkeypatch):
    # e^{i tau t}: A = 1, so the bound caps the interpolation error itself
    tau = 20.0
    for deg in (24, 32, 40):
        t = chebyshev_times(deg)
        coef = np.polynomial.chebyshev.chebfit(t, np.exp(1j * tau * t), deg)
        x = np.linspace(-1.0, 1.0, 4001)
        err = np.max(np.abs(np.polynomial.chebyshev.chebval(x, coef) - np.exp(1j * tau * x)))
        assert err <= bernstein_bound(tau, deg)
    assert chebyshev_degree(tau) % 2 == 0
    # An unreachable target returns the cap.
    monkeypatch.setattr(radial, "_CHEB_TOL", 1e-300)
    monkeypatch.setattr(radial, "_MAX_LEVEL", 6)
    assert chebyshev_degree(tau) == 64


def _panel_layer(lam, z_lo, z_hi, panels=40, cols=64, seed=3):
    """A layer on the G7/K15 rows of `panels` geometric panels, with its
    panels, nodes in [7, 9] and a random complex base: every x rho lies in
    [z_lo, z_hi]."""
    nodes = np.linspace(7.0, 9.0, cols)
    mid, half = panel_centres(np.geomspace(z_lo / 7.0, z_hi / 9.0, panels + 1))
    x = (mid[:, None] + half[:, None] * KRONROD_NODES).ravel()
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(cols) + 1j * rng.standard_normal(cols)
    return radial.RadialKernel(lam, x, nodes, base / cols, nodes ** 2,
                               (mid, half, KRONROD_NODES))


def _envelope(lam, z):
    return math.sqrt(2.0 / math.pi) * z ** (-lam - 0.5)


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 1.5])
def test_hankel_rows_match_the_scipy_kernel(lam):
    layer = _panel_layer(lam, HANKEL_Z0, 1e4)
    assert layer.far_rows == layer.x.size
    far = layer._kernel(slice(0, layer.x.size))
    z = np.outer(layer.x, layer.nodes)
    eps = np.finfo(float).eps
    assert np.all(np.abs(far - bessel_kernel_reduced(lam, z))
                  <= (8.0 * eps * z + 1e-15) * _envelope(lam, z))


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_hankel_rows_no_worse_than_scipy_against_mpmath(lam):
    # Both errors are the rounding of the phase x rho, about eps z / 2 of
    # the envelope at z = x rho, so which one is larger at any point is
    # chance: in units of eps z, both stay below 1.
    layer = _panel_layer(lam, HANKEL_Z0, 1e4)
    far = layer._kernel(slice(0, layer.x.size))
    rng = np.random.default_rng(11)
    rows = rng.integers(0, layer.x.size, 30)
    cols = rng.integers(0, layer.nodes.size, 30)
    errors = {"far": [], "scipy": []}
    with mpmath.workdps(40):
        for i, j in zip(rows, cols):
            zm = mpmath.mpf(layer.x[i]) * mpmath.mpf(layer.nodes[j])
            ref = mpmath.besselj(lam, zm) / zm ** lam
            unit = np.finfo(float).eps * float(zm) * _envelope(lam, float(zm))
            scipy_k = bessel_kernel_reduced(lam, layer.x[i] * layer.nodes[j])
            errors["far"].append(abs(float(far[i, j] - ref)) / unit)
            errors["scipy"].append(abs(float(scipy_k - ref)) / unit)
    assert max(errors["far"]) <= max(1.0, max(errors["scipy"]))


@pytest.mark.parametrize("lam, z_lo", [(-0.5, 0.0), (0.5, 1.0)])
def test_half_order_table_rows_against_mpmath(lam, z_lo):
    # z0(-1/2) = 0 and z0(1/2) = 1: every row with x rho in [z_lo, 20) is a
    # table row, exact but for the rounding of its phase, with no
    # truncation bound.  Units of eps max(z, 1) of the envelope, as above.
    # The one-term series skips the GEMM and gives its bits.
    nodes = np.linspace(7.0, 9.0, 48)
    mid, half = panel_centres(np.linspace(z_lo / 7.0, 20.0 / 9.0, 41))
    x = (mid[:, None] + half[:, None] * KRONROD_NODES).ravel()
    layer = radial.RadialKernel(lam, x, nodes, np.ones(nodes.size), nodes,
                                (mid, half, KRONROD_NODES))
    assert layer.far_rows == x.size and not np.any(layer._truncation())
    far = layer._kernel(slice(0, x.size))
    np.testing.assert_array_equal(far, _hankel_reference(layer, np.arange(x.size)))
    rng = np.random.default_rng(5)
    errors = {"far": [], "scipy": []}
    with mpmath.workdps(40):
        for i, j in zip(rng.integers(0, x.size, 200), rng.integers(0, 48, 200)):
            zm = mpmath.mpf(x[i]) * mpmath.mpf(nodes[j])
            ref = mpmath.besselj(lam, zm) / zm ** lam
            unit = (np.finfo(float).eps * max(float(zm), 1.0)
                    * math.sqrt(2.0 / math.pi))
            scipy_k = bessel_kernel_reduced(lam, x[i] * nodes[j])
            errors["far"].append(abs(float(far[i, j] - ref)) / unit)
            errors["scipy"].append(abs(float(scipy_k - ref)) / unit)
    assert max(errors["far"]) <= max(1.0, max(errors["scipy"]))


def _selector_layer(n, profile, panels=True):
    """The layer of `split.selector_parts` for the profile on
    selector_grid(12, 8)'s panels with a psi(r) != 0 row, with or without
    those panels, and the selector's times on its rows."""
    p = SymbolParams(a=0.5, n=n, s=0.2)
    grid, _ = selector_grid(12.0, 8.0)
    sel = TimeSelector.random(grid, seed=20 + n)
    mid, half, ref = sel.panels
    live = (psi(grid) != 0.0).reshape(-1, 16).any(axis=1)
    rows = np.repeat(live, 16)
    rho, w = profile_rule(profile, 1, osc_rate=12.0, power_coeff=1.0, power=p.a)
    weights = w * rho ** (-p.s) * psi(rho) * profile(rho)
    nodes = rho[weights != 0.0]
    layer = radial.RadialKernel(
        p.lam, grid[rows], nodes,
        nodes ** (p.lam + 0.5) * weights[weights != 0.0], nodes ** p.a,
        (mid[live], half[live], ref) if panels else None)
    return layer, sel.values[rows]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_at_times_with_and_without_panels_agree(n):
    # Hankel elements on the panels' column suffixes against
    # bessel_kernel_reduced and the direct cosine everywhere: each part to
    # 1e-13 of its max (of the full part's for the n = 3 remainder, which
    # is exactly 0 on the panels and rounding without them).  With a
    # common time, the pass is the field at that time.
    base = random_test_profile(8)
    for f in (base, base.modulate(1.5), base.scaled(1j)):
        layer, t = _selector_layer(n, f)
        plain, _ = _selector_layer(n, f, panels=False)
        assert plain.far_rows == 0 and layer.far_rows > 0
        tabled = layer.at_times(t, parts=True)
        scipy_rows = plain.at_times(t, parts=True)
        np.testing.assert_array_equal(layer.at_times(t), tabled[0])
        if n == 3:
            assert not np.any(tabled[2])
        for k, (a, b) in enumerate(zip(tabled, scipy_rows)):
            scale = np.abs(tabled[0 if (n, k) == (3, 2) else k]).max()
            assert np.abs(a - b).max() <= 1e-13 * scale, k
        assert np.abs(tabled[1] + tabled[2] - tabled[0]).max() \
            <= 1e-15 * np.abs(tabled[0]).max()
        common = layer.at_times(np.full(t.size, 0.3))
        field = layer.field(np.array([0.3]))[:, 0]
        assert np.abs(common - field).max() <= 1e-13 * np.abs(field).max()


def test_at_times_needs_ascending_nodes():
    layer, t = _selector_layer(2, bump(6.0, 3.0))
    rev = radial.RadialKernel(layer.lam, layer.x, layer.nodes[::-1],
                              layer.base[::-1], layer.power[::-1], layer.panels)
    with pytest.raises(ValueError, match="ascending"):
        rev.at_times(t)


def test_all_near_chunks_are_the_scipy_kernel():
    # Below HANKEL_Z0 a layer that knows its panels is the one that does not,
    # bit for bit; in a mixed chunk its near rows are the scipy ones.
    near = _panel_layer(0.0, 1.0, HANKEL_Z0 * 7.0 / 9.0)
    plain = radial.RadialKernel(0.0, near.x, near.nodes, near.base, near.power)
    assert near.far_rows == 0
    t = np.linspace(-0.9, 0.9, 7)
    np.testing.assert_array_equal(near.field(t), plain.field(t))
    for a, b in zip(near.chebyshev_sup(32), plain.chebyshev_sup(32)):
        np.testing.assert_array_equal(a, b)
    mixed = _panel_layer(0.0, 5.0, 200.0)
    rows = np.flatnonzero(mixed.x * mixed.nodes.min() < HANKEL_Z0)
    assert 0 < rows.size and mixed.far_rows == mixed.x.size - rows.size
    np.testing.assert_array_equal(
        mixed._kernel(slice(0, mixed.x.size))[rows],
        bessel_kernel_reduced(0.0, np.outer(mixed.x[rows], mixed.nodes)))


def _hankel_reference(layer, rows):
    """The Hankel rows `rows` of layer built one row at a time: panel phase
    times node phase, then times the series, whose terms come from one GEMM
    over every row (a one-row product would take BLAS's matrix-vector
    path)."""
    far = layer._far
    mid, _, ref = layer.panels
    z = layer.x[rows] * far.rho_min
    lead = np.empty((rows.size, far.coef.size))
    lead[:, 0] = z ** -(layer.lam + 0.5)
    lead[:, 1:] = (1.0 / z)[:, None]
    np.cumprod(lead, axis=1, out=lead)
    lead *= far.coef
    series = (lead @ far.cols).view(complex)
    out = np.empty((rows.size, layer.nodes.size))
    for k, (q, l) in enumerate(zip(*np.divmod(rows, ref.size))):
        e = np.exp(1j * np.outer(mid[q:q + 1], layer.nodes))[0]
        e *= far.node_phase[far.first_row[q] + l]
        e *= series[k]
        out[k] = e.real
    return out


def test_whole_panel_hankel_rows_match_a_row_by_row_reference():
    # Two half-widths, 1/8 and 1/4, and x rho_min = 20 inside the panel
    # [2.75, 3]; 64 nodes, so every GEMM row rounds alike at any row count.
    edges = np.concatenate((np.arange(2, 13) * 0.25, 3.0 + np.arange(1, 9) * 0.5))
    mid, half = panel_centres(edges)
    x = (mid[:, None] + half[:, None] * KRONROD_NODES).ravel()
    nodes = np.linspace(7.0, 9.0, 64)
    layer = radial.RadialKernel(0.0, x, nodes, np.ones(nodes.size), nodes,
                                (mid, half, KRONROD_NODES))
    far = np.flatnonzero(layer._far.mask)
    assert np.unique(half[far // 15]).size == 2 and far[0] % 15 != 0
    reference = _hankel_reference(layer, far)
    # One chunk; a chunk ending on the first far row, then one holding the
    # next far row alone, then chunks of 7 rows that cut every panel.
    b = far[0]
    for cuts in ([0, x.size], [0, b + 1, b + 2] + list(range(b + 9, x.size, 7)) + [x.size]):
        kern = np.concatenate([layer._kernel(slice(i0, i1))
                               for i0, i1 in zip(cuts, cuts[1:])])
        np.testing.assert_array_equal(kern[far], reference)
        np.testing.assert_array_equal(
            kern[:b], bessel_kernel_reduced(0.0, np.outer(x[:b], nodes)))


def test_panels_must_hold_every_row_and_no_whole_panel_more():
    layer = _panel_layer(0.0, 5.0, 400.0, panels=4)
    mid, half, ref = layer.panels
    args = (layer.lam, layer.x, layer.nodes, layer.base, layer.power)
    with pytest.raises(ValueError, match="every row"):
        radial.RadialKernel(*args, (mid[:3], half[:3], ref))
    with pytest.raises(ValueError, match="every row"):
        radial.RadialKernel(*args, (np.append(mid, 60.0), np.append(half, 1.0), ref))
    # A last panel may hold fewer rows than the others.
    short = radial.RadialKernel(layer.lam, layer.x[:-14], layer.nodes,
                                layer.base, layer.power, layer.panels)
    np.testing.assert_array_equal(short._kernel(slice(0, short.x.size)),
                                  layer._kernel(slice(0, layer.x.size))[:-14])


def test_row_chunks_that_cut_panels_match_one_chunk(monkeypatch):
    layer = _panel_layer(1.0, 5.0, 400.0)
    degree = 32
    t = chebyshev_times(degree)
    whole_field = layer.field(t)
    whole = layer.chebyshev_sup(degree)
    # Chunks of 7 rows: every 15-row panel is cut.
    row_bytes = 8 * layer.nodes.size + 16 * t.size + 16 * (radial._DENSE * degree + 1)
    monkeypatch.setattr(radial, "_SAMPLE_BYTES", 7 * row_bytes)
    assert len(radial.row_chunks(layer.x.size, row_bytes)) > layer.x.size // 15
    cut = radial.RadialKernel(layer.lam, layer.x, layer.nodes, layer.base,
                              layer.power, layer.panels)
    chunked_field = cut.field(t)
    assert np.abs(chunked_field - whole_field).max() \
        <= 1e-13 * np.abs(whole_field).max()
    # The argmax times are left out: near-ties move them by far more.
    (sup, _, bound), (whole_sup, _, whole_bound) = cut.chebyshev_sup(degree), whole
    for a, b in ((sup, whole_sup), (bound, whole_bound)):
        assert np.abs(a - b).max() <= 1e-13 * b.max()


def test_bound_holds_the_hankel_truncation():
    layer = _panel_layer(0.0, 5.0, 400.0)
    degree = chebyshev_degree(layer.tau)
    _, _, bound = layer.chebyshev_sup(degree)
    trunc = layer._truncation()
    far = layer.x * layer.nodes.min() >= HANKEL_Z0
    assert np.all(trunc[far] > 0.0) and np.all(trunc[~far] == 0.0)
    # Its terms are below rounding: a few ulps of the envelope at x rho_min.
    z = layer.x[far] * layer.nodes.min()
    assert np.all(trunc[far] <= np.finfo(float).eps * _envelope(0.0, z))
    kern = np.abs(layer._kernel(slice(0, layer.x.size)))
    abs_base = np.abs(layer.base)
    expected = (bernstein_bound(layer.tau, degree) * (kern @ abs_base)
                + trunc * abs_base.sum())
    np.testing.assert_allclose(bound, expected, rtol=1e-12)
    # Half-integer orders have no remainder.
    assert not np.any(_panel_layer(0.5, 5.0, 400.0)._truncation())
