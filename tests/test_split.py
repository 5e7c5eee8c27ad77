import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import oscillax.split as split
from oscillax.bessel import bessel_j, certify_asymptotic
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


def _dense_parts(f, sel, p, kept=False):
    """The three parts from whole matrices, and the number of kernel
    elements they take.

    kept=False is the complex formula split used before its real pass: the
    whole R x J matrices, (r rho)^(1/2) J_lam as the full kernel, the
    complex phase e^{i t rho^a} and one gemv per part.  kept=True mirrors
    the pass: only the rows with psi(r) != 0 and the columns with a nonzero
    weight, the elements it evaluates, the full kernel as the main term at
    |lam| = 1/2, the real phases w cos(t rho^a) and w sin(t rho^a) of a real
    weight, and one dot per row against each; zeros in the other rows.
    """
    r, t = sel.grid, sel.values
    rho, w = profile_rule(f, 1, osc_rate=float(np.max(np.abs(r))),
                          power_coeff=1.0, power=p.a)
    weights = w * rho ** (-p.s) * CUT.psi(rho) * f(rho)
    psi_r = CUT.psi(r)
    rows = psi_r != 0.0 if kept else np.ones(r.size, dtype=bool)
    cols = weights != 0.0 if kept else np.ones(rho.size, dtype=bool)
    r, t, rho, weights = r[rows], t[rows], rho[cols], weights[cols]
    z = np.outer(r, rho)
    arg = r[:, None] * rho[None, :] - p.lam * (0.5 * math.pi) - 0.25 * math.pi
    main = math.sqrt(2.0 / math.pi) * np.cos(arg)
    full = np.sqrt(z) * np.asarray(bessel_j(p.lam, z))
    if kept and abs(p.lam) == 0.5:
        main = full
    kernels = {"full": full, "main": main, "remainder": full - main}
    theta = np.outer(t, rho ** p.a)
    cos_w, sin_w = np.cos(theta) * weights, np.sin(theta) * weights
    out = {}
    for part, kern in kernels.items():
        out[part] = np.zeros(sel.grid.size, dtype=complex)
        if kept:
            vals = np.array([complex(np.dot(k, c), np.dot(k, s))
                             for k, c, s in zip(kern, cos_w, sin_w)])
        else:
            vals = (kern * np.exp(1j * theta)) @ weights
        out[part][rows] = psi_r[rows] * vals
    return out, z.size


def _counting_bessel(monkeypatch):
    """Patch split.bessel_j to record the size of each argument it gets."""
    sizes = []
    original = split.bessel_j

    def counted(lam, x):
        sizes.append(np.size(x))
        return original(lam, x)

    monkeypatch.setattr(split, "bessel_j", counted)
    return sizes


@pytest.mark.parametrize("a", [0.5, 2.0])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_selector_parts_match_dense_formula(monkeypatch, n, a):
    # Elementwise kernels and phases and one dot per row give each row the
    # same operations in the same order in any row block, so equality with
    # the reference on the same rows and columns is bitwise.  Dropping the
    # zero-weight columns and the real arithmetic change each row's sum
    # only by rounding.  At n = 3 (lam = 1/2) the full kernel is the main
    # term, so the remainder is exactly 0.
    monkeypatch.setattr(split, "_SELECTOR_MEMO", {})
    sizes = _counting_bessel(monkeypatch)
    p = SymbolParams(a=a, n=n, s=0.2)
    grid, _ = selector_grid(12.0, 8.0)
    f = random_test_profile(n)
    sel = TimeSelector.random(grid, seed=10 * n + int(a))
    parts = selector_parts(f, sel, p)
    ref, elements = _dense_parts(f, sel, p, kept=True)
    whole, _ = _dense_parts(f, sel, p)
    assert len(sizes) >= 3 and sum(sizes) == elements
    if n == 3:
        assert not np.any(parts["remainder"])
    for part in ("full", "main", "remainder"):
        assert np.array_equal(parts[part], ref[part]), part
        # At n = 3 the remainder is exactly 0 and the formula's is the
        # rounding of full - main, so the full part sets its scale.
        scale = np.abs(whole["full" if (n, part) == (3, "remainder")
                             else part]).max()
        assert np.abs(parts[part] - whole[part]).max() <= 1e-13 * scale, part


@pytest.mark.parametrize("n", [2, 3])
def test_selector_parts_do_not_depend_on_the_block_size(monkeypatch, n):
    # One row per block, blocks of 7 rows and the default _FAR_BLOCK
    # elements give the same bits.
    chunks, original = [], split.row_chunks

    def recorded(rows, row_bytes, budget):
        chunks.append((row_bytes, original(rows, row_bytes, budget)))
        return chunks[-1][1]

    monkeypatch.setattr(split, "row_chunks", recorded)
    monkeypatch.setattr(split, "_SELECTOR_MEMO", {})
    p = SymbolParams(a=0.5, n=n, s=0.2)
    grid, _ = selector_grid(12.0, 8.0)
    args = (random_test_profile(5), TimeSelector.random(grid, seed=7), p)
    ref = selector_parts(*args)
    cols = chunks[-1][0]
    for budget, rows in ((1, 1), (7 * cols, 7)):
        monkeypatch.setattr(split, "_FAR_BLOCK", budget)
        split._SELECTOR_MEMO.clear()
        parts = selector_parts(*args)
        assert max(c.stop - c.start for c in chunks[-1][1]) == rows
        for part in ("full", "main", "remainder"):
            assert np.array_equal(parts[part], ref[part]), (budget, part)
    assert len(chunks[0][1]) > 3


@pytest.mark.parametrize("a, s", [(0.5, 0.2), (2.0, 0.6)])
def test_split_checks_at_half_order_have_an_exact_zero_remainder(a, s):
    # bessel_j at lam = 1/2 is its main term, and certify_asymptotic's
    # bound is exactly 0 there; the remainder must not show rounding.
    dev, ratio = split.split_checks(SymbolParams(a=a, n=3, s=s), 2, 1000)
    assert dev == 0.0 and ratio == 0.0


def test_selector_triple_builds_kernels_once(monkeypatch):
    monkeypatch.setattr(split, "_SELECTOR_MEMO", {})
    sizes = _counting_bessel(monkeypatch)
    p = SymbolParams(a=0.5, n=2, s=0.2)
    grid, _ = selector_grid(12.0, 8.0)
    f = random_test_profile(3)
    sel = TimeSelector.random(grid, seed=5)
    base = {part: apply_selector_radial(f, sel, p, part)
            for part in ("full", "main", "remainder")}
    assert sum(sizes) == _dense_parts(f, sel, p, kept=True)[1]

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
        whole, _ = _dense_parts(f, sel, p)
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
    sizes = _counting_bessel(monkeypatch)
    frame = bump(0.8, 0.8).scaled(0.5).plus(bump(18.2, 0.8).scaled(-0.5))
    grid, _ = selector_grid(12.0, 8.0)
    for k, (a, s) in enumerate(((0.5, 0.2), (2.0, 0.6))):
        sizes.clear()
        p = SymbolParams(a=a, n=2, s=s)
        f = random_test_profile(k).plus(frame)
        sel = TimeSelector.random(grid, seed=40 + k)
        parts = selector_parts(f, sel, p)
        ref, elements = _dense_parts(f, sel, p)
        assert 0 < sum(sizes) < elements
        for part in ("full", "main", "remainder"):
            scale = np.abs(ref[part]).max()
            assert np.abs(parts[part] - ref[part]).max() <= 1e-13 * scale, part


def test_selector_parts_of_data_below_one_are_zero(monkeypatch):
    # psi(rho) = 0 on the whole support, so every weight is 0
    monkeypatch.setattr(split, "_SELECTOR_MEMO", {})
    sizes = _counting_bessel(monkeypatch)
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
