import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import oscillax.radial as radial
import oscillax.split as split
from oscillax.bessel import bessel_j, certify_asymptotic, hankel_z0
from oscillax.cutoffs import chi, gamma_weight, make_cutoff, psi
from oscillax.oscillatory import SymbolParams
from oscillax.profiles import annular, bump
from oscillax.quadrature import oscillatory_rule
from oscillax.radial import profile_rule
from oscillax.split import (TimeSelector, apply_selector_multiplier,
                            apply_selector_radial, l2_halfline,
                            maximal_kernel, profile_l2, random_test_profile,
                            recompose_residual, remainder_constant,
                            selector_grid, selector_parts, tilde_field)

CUT = make_cutoff()


def test_selector_validation():
    grid = np.linspace(0.0, 10.0, 50)
    with pytest.raises(ValueError):
        TimeSelector(grid=grid, values=np.full(50, 1.0))
    with pytest.raises(ValueError):
        TimeSelector(grid=grid, values=np.zeros(49))


def test_multiplier_operator_zero_selector_inverse_transform():
    # t = 0, s = 0: R_0 f(x) = int e^{i x xi} gamma_0^(1/2) f(xi) dxi
    #                      = 2 int cos(x xi) gamma_0^(1/2) f
    p = SymbolParams(a=2.0, n=1, s=0.0)
    f = random_test_profile(4)
    grid, _ = selector_grid(30.0, 20.0)
    sel = TimeSelector(grid=grid, values=np.zeros(grid.size))
    vals = apply_selector_multiplier(f, sel, p)
    rr = np.linspace(0.0, 22.0, 150001)
    sub = grid[::150]
    weighted = np.sqrt(gamma_weight(0.0, rr)) * f(rr)
    ref = np.array([2.0 * np.trapezoid(np.cos(x * rr) * weighted, rr) for x in sub])
    assert np.abs(vals[::150] - ref).max() <= 1e-9 * max(1.0, np.abs(ref).max())


def test_multiplier_operator_linear_in_data():
    p = SymbolParams(a=0.5, n=1, s=0.3)
    f1, f2 = random_test_profile(1), random_test_profile(2)
    grid, _ = selector_grid(30.0, 20.0)
    sel = TimeSelector.random(grid, seed=9)
    lhs = apply_selector_multiplier(f1.scaled(0.6).plus(f2.scaled(-1.3)), sel, p)
    rhs = 0.6 * apply_selector_multiplier(f1, sel, p) \
        - 1.3 * apply_selector_multiplier(f2, sel, p)
    assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())


def test_multiplier_bounded_over_selectors_above_threshold():
    # s > a/4: ratios stay within a uniform band across random selectors
    p = SymbolParams(a=0.5, n=1, s=0.25)
    f = random_test_profile(7)
    grid, gw = selector_grid(40.0, 20.0)
    norm_f = profile_l2(f)
    ratios = []
    for seed in range(20):
        sel = TimeSelector.random(grid, seed=seed)
        vals = apply_selector_multiplier(f, sel, p)
        ratios.append(l2_halfline(vals, gw) / norm_f)
    ratios = np.array(ratios)
    assert ratios.max() <= 25.0
    assert ratios.max() / ratios.min() <= 3.0


def test_split_sum_recomposes_full_operator():
    p = SymbolParams(a=0.5, n=2, s=0.2)
    grid, _ = selector_grid(40.0, 22.0)
    for seed in (0, 1):
        f = random_test_profile(seed)
        sel = TimeSelector.random(grid, seed=100 + seed)
        full = apply_selector_radial(f, sel, p, "full")
        main = apply_selector_radial(f, sel, p, "main")
        rem = apply_selector_radial(f, sel, p, "remainder")
        assert np.abs(main + rem - full).max() <= 1e-9


def _dense_parts(f, sel, p):
    """The three parts from the complex formula split on whole matrices:
    (r rho)^(1/2) J_lam as the full kernel, sqrt(2/pi) cos(r rho - phi) as
    the main term, their difference as the remainder, the complex phase
    e^{i t rho^a} and one gemv per part."""
    r, t = sel.grid, sel.values
    rho, w = profile_rule(f, 1, osc_rate=float(np.max(np.abs(r))),
                          power_coeff=1.0, power=p.a)
    weights = w * rho ** (-p.s) * CUT.psi(rho) * f(rho)
    z = np.outer(r, rho)
    arg = r[:, None] * rho[None, :] - p.lam * (0.5 * math.pi) - 0.25 * math.pi
    main = math.sqrt(2.0 / math.pi) * np.cos(arg)
    full = np.sqrt(z) * np.asarray(bessel_j(p.lam, z))
    kernels = {"full": full, "main": main, "remainder": full - main}
    phase = np.exp(1j * np.outer(t, rho ** p.a))
    return {part: CUT.psi(r) * ((kern * phase) @ weights)
            for part, kern in kernels.items()}


def _near_elements(f, sel, p):
    """The elements the pass takes from bessel_kernel_reduced: in each
    selector panel with a row psi(r) != 0, its rows times the nodes with a
    nonzero weight and x_min rho < z0(lam), x_min the panel's least row."""
    r = sel.grid
    rho, w = profile_rule(f, 1, osc_rate=float(np.max(np.abs(r))),
                          power_coeff=1.0, power=p.a)
    nodes = rho[w * rho ** (-p.s) * CUT.psi(rho) * f(rho) != 0.0]
    panels = r.reshape(-1, 16)
    live = panels[(CUT.psi(panels) != 0.0).any(axis=1)]
    return 16 * int(np.count_nonzero(
        np.multiply.outer(live[:, 0], nodes) < hankel_z0(p.lam)))


def _counting_kernel(monkeypatch):
    """Patch the kernel layer's bessel_kernel_reduced to record the size of
    each argument it gets: the near elements."""
    sizes = []
    original = radial.bessel_kernel_reduced

    def counted(lam, x):
        sizes.append(np.size(x))
        return original(lam, x)

    monkeypatch.setattr(radial, "bessel_kernel_reduced", counted)
    return sizes


def _mpmath_remainder(f, sel, p, rows):
    """The remainder part on the given rows, each kernel element
    (r rho)^(1/2) J_lam(r rho) - sqrt(2/pi) cos(r rho - phi) from mpmath at
    30 digits, rounded once, and each row's sum by math.fsum."""
    r, t = sel.grid, sel.values
    rho, w = profile_rule(f, 1, osc_rate=float(np.max(np.abs(r))),
                          power_coeff=1.0, power=p.a)
    weights = w * rho ** (-p.s) * CUT.psi(rho) * f(rho)
    live = weights != 0.0
    rho, weights = rho[live], weights[live]
    out = np.zeros(len(rows), dtype=complex)
    with mpmath.workdps(30):
        phi = p.lam * mpmath.pi / 2 + mpmath.pi / 4
        amp = mpmath.sqrt(2 / mpmath.pi)
        for k, i in enumerate(rows):
            z = [mpmath.mpf(r[i]) * mpmath.mpf(v) for v in rho]
            kern = np.array([float(mpmath.sqrt(zj) * mpmath.besselj(p.lam, zj)
                                   - amp * mpmath.cos(zj - phi)) for zj in z])
            terms = kern * weights * np.exp(1j * t[i] * rho ** p.a)
            out[k] = CUT.psi(r[i]) * complex(math.fsum(terms.real),
                                             math.fsum(terms.imag))
    return out


@pytest.mark.parametrize("a", [0.5, 2.0])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_selector_parts_match_dense_formula(monkeypatch, n, a):
    # The pass takes from scipy only the near elements of the live panels;
    # every part matches the complex dense formula to 1e-13 of its max.  At
    # n = 3 (lam = 1/2) every live element is a one-term Hankel element, so
    # the remainder is exactly 0 and the full part sets the scale.  At n = 4
    # the formula's full - main rounds like the full kernel, not like the
    # remainder, so that remainder is checked on sampled rows against
    # mpmath instead.
    monkeypatch.setattr(split, "_SELECTOR_MEMO", {})
    sizes = _counting_kernel(monkeypatch)
    p = SymbolParams(a=a, n=n, s=0.2)
    grid, _ = selector_grid(12.0, 8.0)
    f = random_test_profile(n)
    sel = TimeSelector.random(grid, seed=10 * n + int(a))
    parts = selector_parts(f, sel, p)
    whole = _dense_parts(f, sel, p)
    assert sum(sizes) == _near_elements(f, sel, p)
    assert (n == 3) == (sizes == [])
    if n == 3:
        assert not np.any(parts["remainder"])
    for part in ("full", "main", "remainder"):
        if (n, part) == (4, "remainder"):
            rows = np.argsort(np.abs(whole[part]))[-6:]
            ref, got = _mpmath_remainder(f, sel, p, rows), parts[part][rows]
        else:
            ref, got = whole[part], parts[part]
        scale = np.abs(whole["full" if (n, part) == (3, "remainder")
                             else part]).max()
        assert np.abs(got - ref).max() <= 1e-13 * scale, part


@pytest.mark.parametrize("n", [2, 3, 4])
def test_selector_parts_do_not_depend_on_the_block_size(monkeypatch, n):
    # The pass goes one selector panel at a time, and a panel's rows do not
    # depend on the other panels: a grid that keeps only some of the panels
    # (the last one always, so the rho rule stays) gives the same bits on
    # them.
    monkeypatch.setattr(split, "_SELECTOR_MEMO", {})
    p = SymbolParams(a=0.5, n=n, s=0.2)
    grid, _ = selector_grid(12.0, 8.0)
    f, sel = random_test_profile(5), TimeSelector.random(grid, seed=7)
    ref = selector_parts(f, sel, p)
    count = grid.size // 16
    for kept in ([5, count - 1], [count - 2, count - 1],
                 list(range(0, count, 3)) + [count - 1]):
        rows = (16 * np.array(kept)[:, None] + np.arange(16)).ravel()
        sub = TimeSelector(grid=grid[rows], values=sel.values[rows])
        assert sub.panels is not None
        parts = selector_parts(f, sub, p)
        for part in ("full", "main", "remainder"):
            assert np.array_equal(parts[part], ref[part][rows]), (kept, part)


@pytest.mark.parametrize("a, s", [(0.5, 0.2), (2.0, 0.6)])
def test_split_checks_at_half_order_have_an_exact_zero_remainder(a, s):
    # bessel_j at lam = 1/2 is its main term, and certify_asymptotic's
    # bound is exactly 0 there; the remainder must not show rounding.
    dev, ratio = split.split_checks(SymbolParams(a=a, n=3, s=s), 2, 1000)
    assert dev == 0.0 and ratio == 0.0


@pytest.mark.parametrize("a", [0.5, 2.0])
def test_half_order_remainder_is_zero_without_panels(monkeypatch, a):
    # A grid that is no GL-16 rule gives the layer no panels, so every
    # element comes from bessel_kernel_reduced; at lam = 1/2 the series is
    # still its one term, so main is full and the remainder exactly 0.
    monkeypatch.setattr(split, "_SELECTOR_MEMO", {})
    sizes = _counting_kernel(monkeypatch)
    p = SymbolParams(a=a, n=3, s=0.2)
    f = random_test_profile(3)
    sel = TimeSelector.random(np.linspace(0.0, 12.0, 400), seed=31)
    assert sel.panels is None
    parts = selector_parts(f, sel, p)
    assert sum(sizes) > 0
    assert not np.any(parts["remainder"])
    assert np.array_equal(parts["main"], parts["full"])
    whole = _dense_parts(f, sel, p)
    scale = np.abs(whole["full"]).max()
    for part in ("full", "main"):
        assert np.abs(parts[part] - whole[part]).max() <= 1e-13 * scale, part


def test_selector_triple_builds_kernels_once(monkeypatch):
    monkeypatch.setattr(split, "_SELECTOR_MEMO", {})
    passes, original = [], radial.RadialKernel.at_times

    def counted(layer, t, parts=False):
        passes.append(parts)
        return original(layer, t, parts)

    monkeypatch.setattr(radial.RadialKernel, "at_times", counted)
    p = SymbolParams(a=0.5, n=2, s=0.2)
    grid, _ = selector_grid(12.0, 8.0)
    f = random_test_profile(3)
    sel = TimeSelector.random(grid, seed=5)
    base = {part: apply_selector_radial(f, sel, p, part)
            for part in ("full", "main", "remainder")}
    assert passes == [True]

    def fresh(*args):
        split._SELECTOR_MEMO.clear()
        return selector_parts(*args)

    variants = [(f, TimeSelector.random(grid, seed=6), p),
                (random_test_profile(4), sel, p),
                (f, sel, SymbolParams(a=0.5, n=2, s=0.3))]
    for args in variants:
        selector_parts(f, sel, p)
        got = selector_parts(*args)
        ref = fresh(*args)
        assert not np.array_equal(got["full"], base["full"])
        for part in ("full", "main", "remainder"):
            assert np.array_equal(got[part], ref[part]), part

    for part in ("full", "main", "remainder"):
        out = apply_selector_radial(f, sel, p, part)
        out[:] = 0.0
        assert np.array_equal(apply_selector_radial(f, sel, p, part), base[part])
    parts = selector_parts(f, sel, p)
    parts["main"] += 1.0
    assert np.array_equal(selector_parts(f, sel, p)["main"], base["main"])


@pytest.mark.parametrize("n", [2, 3])
def test_complex_profiles_match_dense_formulas(monkeypatch, n):
    # Modulated and complex-scaled profiles give complex weights, whose real
    # and imaginary parts both enter the real rows of the pass.
    monkeypatch.setattr(split, "_SELECTOR_MEMO", {})
    grid, _ = selector_grid(12.0, 8.0)
    sel = TimeSelector.random(grid, seed=60 + n)
    x, t = sel.grid, sel.values
    base = random_test_profile(6)
    for f in (base.modulate(1.5), base.scaled(1j), base.scaled(0.3 - 0.8j)):
        p = SymbolParams(a=0.5, n=n, s=0.2)
        parts = selector_parts(f, sel, p)
        whole = _dense_parts(f, sel, p)
        for part in ("full", "main", "remainder"):
            scale = np.abs(whole["full" if (n, part) == (3, "remainder")
                                 else part]).max()
            assert np.abs(parts[part] - whole[part]).max() <= 1e-13 * scale
        p = SymbolParams(a=0.5, n=1, s=0.2)
        vals = apply_selector_multiplier(f, sel, p)
        rho, w = profile_rule(f, 1, osc_rate=float(np.max(np.abs(x))),
                              power_coeff=1.0, power=p.a)
        vec = w * np.sqrt(gamma_weight(-2.0 * p.s, rho)) * f(rho)
        phase = np.exp(1j * np.outer(t, rho ** p.a))
        ref = 2.0 * ((np.cos(np.outer(x, rho)) * phase) @ vec)
        assert np.abs(vals - ref).max() <= 1e-13 * np.abs(ref).max()


def test_selector_parts_skip_dead_rows_and_columns(monkeypatch):
    # A bump profile framed like the split benchmark's: psi kills rho <= 1
    # and the gaps between the bumps, so most columns carry no weight.
    monkeypatch.setattr(split, "_SELECTOR_MEMO", {})
    sizes = _counting_kernel(monkeypatch)
    frame = bump(0.8, 0.8).scaled(0.5).plus(bump(18.2, 0.8).scaled(-0.5))
    grid, _ = selector_grid(12.0, 8.0)
    for k, (a, s) in enumerate(((0.5, 0.2), (2.0, 0.6))):
        sizes.clear()
        p = SymbolParams(a=a, n=2, s=s)
        f = random_test_profile(k).plus(frame)
        sel = TimeSelector.random(grid, seed=40 + k)
        parts = selector_parts(f, sel, p)
        ref = _dense_parts(f, sel, p)
        assert 0 < sum(sizes) < grid.size * profile_rule(
            f, 1, osc_rate=float(np.max(grid)), power_coeff=1.0,
            power=a)[0].size
        for part in ("full", "main", "remainder"):
            scale = np.abs(ref[part]).max()
            assert np.abs(parts[part] - ref[part]).max() <= 1e-13 * scale, part


def test_selector_parts_of_data_below_one_are_zero(monkeypatch):
    # psi(rho) = 0 on the whole support, so every weight is 0
    monkeypatch.setattr(split, "_SELECTOR_MEMO", {})
    sizes = _counting_kernel(monkeypatch)
    grid, _ = selector_grid(20.0, 5.0)
    sel = TimeSelector.random(grid, seed=2)
    parts = selector_parts(bump(0.5, 0.4), sel, SymbolParams(a=0.5, n=2, s=0.2))
    assert sizes == []
    for part in ("full", "main", "remainder"):
        assert parts[part].shape == grid.shape
        assert not np.any(parts[part]), part


def test_apply_selector_radial_rejects_unknown_part():
    grid, _ = selector_grid(12.0, 8.0)
    sel = TimeSelector.random(grid, seed=0)
    with pytest.raises(ValueError):
        apply_selector_radial(random_test_profile(0), sel,
                              SymbolParams(a=0.5, n=2, s=0.2), "both")


def test_pieces_vanish_where_cutoff_kills_data():
    # data supported below 1 is annihilated by the frequency cutoff psi
    p = SymbolParams(a=0.5, n=2, s=0.2)
    f = bump(0.5, 0.4)  # support [0.1, 0.9], psi = 0 there
    grid, _ = selector_grid(20.0, 5.0)
    sel = TimeSelector.random(grid, seed=2)
    for part in ("full", "main", "remainder"):
        assert np.abs(apply_selector_radial(f, sel, p, part)).max() <= 1e-14


def test_remainder_bound_holds_and_decreases_in_s():
    cert = certify_asymptotic(0.0, 1.05, 2.0 ** 12)
    consts = []
    for s in (0.0, 0.2, 0.6):
        p = SymbolParams(a=0.5, n=2, s=s)
        consts.append(remainder_constant(p, CUT, cert))
    assert consts[0] > consts[1] > consts[2] > 0.0

    p = SymbolParams(a=0.5, n=2, s=0.2)
    bound = remainder_constant(p, CUT, cert)
    grid, gw = selector_grid(45.0, 22.0)
    for seed in range(5):
        f = random_test_profile(seed)
        sel = TimeSelector.random(grid, seed=50 + seed)
        rem = apply_selector_radial(f, sel, p, "remainder")
        assert l2_halfline(rem, gw) <= bound * profile_l2(f)


def test_remainder_bound_rejects_divergent_regularity():
    cert = certify_asymptotic(0.0, 1.05, 2.0 ** 12)
    with pytest.raises(ValueError):
        remainder_constant(SymbolParams(a=0.5, n=2, s=-0.6), CUT, cert)


def test_kernel_even_in_x():
    p = SymbolParams(a=0.5, n=1, s=0.2)
    x, k_vals, l1 = maximal_kernel(4.0, 4.0, p)
    assert np.abs(k_vals - k_vals[::-1]).max() <= 1e-9
    assert l1 > 0.0


def test_kernel_center_value_static_grid():
    # s = 0: the integrand at x = 0 is positive, so the sup is at t = 0 and
    # K(0) = int gamma_0 chi_mu^2 dxi, directly computable
    p = SymbolParams(a=0.5, n=1, s=0.0)
    mu = 2.0
    x, k_vals, _ = maximal_kernel(4.0, mu, p)
    center = k_vals[x.size // 2]
    xi = np.linspace(0.0, 2.0 * mu, 400001)
    direct = 2.0 * np.trapezoid(gamma_weight(0.0, xi) * chi(xi / mu) ** 2, xi)
    assert center == pytest.approx(direct, rel=1e-6)


def test_kernel_matches_dense_time_search():
    # K(x)/chi(x/m) is the sup over |t| <= 2; reference: a dense scan in t,
    # then a bounded search between the neighbours of the best scan point
    p = SymbolParams(a=0.5, n=1, s=0.2)
    m = mu = 4.0
    x, k_vals, _ = maximal_kernel(m, mu, p)
    x_half, k_half = x[x.size // 2:], k_vals[x.size // 2:]
    rho, w = oscillatory_rule(0.0, 2.0 * mu, linear_rate=float(x_half[-1]),
                              power_coeff=2.0, power=p.a, panel_cap=0.25)
    vec = w * gamma_weight(-2.0 * p.s, rho) * CUT.chi(rho / mu) ** 2
    t = np.linspace(-2.0, 2.0, 4001)
    phase = np.exp(1j * np.outer(t, rho ** p.a))
    checked = 0
    for i in range(0, x_half.size, 37):
        weight = CUT.chi(x_half[i] / m)
        if weight <= 0.0:
            continue
        coef = 2.0 * np.cos(x_half[i] * rho) * vec

        def mag(tt):
            return abs(np.sum(coef * np.exp(1j * tt * rho ** p.a)))

        scan = np.abs(phase @ coef)
        j = int(np.argmax(scan))
        res = minimize_scalar(lambda tt: -mag(tt),
                              bounds=(t[max(j - 1, 0)], t[min(j + 1, t.size - 1)]),
                              method="bounded", options={"xatol": 1e-12})
        ref = max(scan[j], -res.fun)
        assert k_half[i] / weight == pytest.approx(ref, rel=1e-6)
        checked += 1
    assert checked >= 10


def test_kernel_l1_stable_as_mu_doubles():
    p = SymbolParams(a=0.5, n=1, s=0.2)  # s > a/4
    l1s = []
    for mu in (4.0, 8.0, 16.0, 32.0):
        _, _, l1 = maximal_kernel(mu, mu, p)
        l1s.append(l1)
    for prev, nxt in zip(l1s, l1s[1:]):
        assert abs(nxt - prev) <= 0.2 * prev


def test_kernel_rejects_small_localization():
    with pytest.raises(ValueError):
        maximal_kernel(1.0, 4.0, SymbolParams(a=0.5, n=1, s=0.2))


def test_recompose_residual_small():
    p = SymbolParams(a=0.5, n=2, s=0.3)
    res = recompose_residual(annular(4.0), p, np.linspace(0.0, 6.0, 13),
                             np.array([-0.7, 0.0, 0.5]))
    assert res <= 1e-9


def test_recompose_evaluates_each_frequency_piece_once(monkeypatch):
    # the whole field and the two frequency pieces; the range cutoffs only
    # multiply them
    calls = []
    field = split.tilde_field
    monkeypatch.setattr(split, "tilde_field",
                        lambda *args, **kw: calls.append(args) or field(*args, **kw))
    recompose_residual(annular(4.0), SymbolParams(a=0.5, n=2, s=0.3),
                       np.linspace(0.0, 6.0, 13), np.array([0.5]))
    assert len(calls) == 3


def test_high_frequency_pieces_vanish_for_low_frequency_data():
    # data inside the unit ball: psi-in-frequency pieces are identically zero
    p = SymbolParams(a=0.5, n=2, s=0.3)
    g = bump(0.45, 0.35)  # support [0.1, 0.8]
    r = np.linspace(0.0, 4.0, 9)
    t = np.array([0.2])
    for cut in (chi, psi):
        piece = cut(r)[:, None] * tilde_field(g, p, r, t, "psi")
        assert np.abs(piece).max() <= 1e-14


def test_low_frequency_pieces_vanish_for_annular_data():
    p = SymbolParams(a=0.5, n=2, s=0.3)
    g = annular(8.0)  # support [4, 16], chi = 0 there
    r = np.linspace(0.0, 4.0, 9)
    t = np.array([0.2])
    for cut in (chi, psi):
        piece = cut(r)[:, None] * tilde_field(g, p, r, t, "chi")
        assert np.abs(piece).max() <= 1e-14


def test_linearization_never_exceeds_discrete_maximal_bound():
    # selectors drawn from a grid: ||R_t f|| <= || sup over that grid ||
    p = SymbolParams(a=0.5, n=1, s=0.25)
    f = random_test_profile(3)
    grid, gw = selector_grid(30.0, 20.0)
    t_grid = np.arange(-(2 ** 4 - 1), 2 ** 4) / 2 ** 4
    rho, w = profile_rule(f, 1, osc_rate=float(grid.max()),
                          power_coeff=1.0, power=p.a)
    gam = np.sqrt(gamma_weight(-2.0 * p.s, rho))
    vec = w * gam * f(rho)
    cosmat = np.cos(np.outer(grid, rho))
    sup_field = np.zeros(grid.size)
    for t in t_grid:
        vals = np.abs(2.0 * (cosmat @ (vec * np.exp(1j * t * rho ** p.a))))
        np.maximum(sup_field, vals, out=sup_field)
    sup_norm = l2_halfline(sup_field, gw)
    rng = np.random.default_rng(0)
    for _ in range(10):
        sel = TimeSelector(grid=grid, values=rng.choice(t_grid, size=grid.size))
        vals = apply_selector_multiplier(f, sel, p)
        assert l2_halfline(vals, gw) <= sup_norm * (1 + 1e-12)
