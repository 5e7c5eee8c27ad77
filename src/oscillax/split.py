"""Linearized maximal operators, frequency/range splits, kernel estimates.

Linearization replaces sup over t by evaluation at a measurable time
selector t(r) with values in (-1, 1); bounds uniform over selectors imply
maximal bounds.  Two linearized operators are provided:

* the 1-D multiplier form, acting on even profiles f on the line,

    (R_t f)(x) = int_R e^{i x xi} e^{i t(x) |xi|^a} gamma_{-2s}(xi)^(1/2) f(xi) dxi,

* the radial Bessel form on L2(R_+), localized by psi at both ends,

    (R_t f)(r) = psi(r) int_0^inf (r rho)^(1/2) J_lam(r rho)
                   e^{i t(r) rho^a} rho^(-s) psi(rho) f(rho) drho.

The radial form splits along the large-argument cosine approximation of the
kernel: the "main" part replaces (r rho)^(1/2) J_lam(r rho) by
sqrt(2/pi) cos(r rho - lam pi/2 - pi/4), and the "remainder" part carries
the difference, which is bounded by C_lam/(r rho) on the support of
psi(r) psi(rho).  Chaining that bound through Cauchy-Schwarz yields the
fully explicit operator bound

    ||R_{t,2} f|| <= C_lam * (int psi(r)^2 r^-2 dr)^(1/2)
                           * (int rho^(-2-2s) psi(rho) drho)^(1/2) * ||f||,

with C_lam taken from an empirical asymptotic certificate.
`selector_parts` returns full, main and remainder from one pass over the
selector grid in the row blocks of `radial.row_chunks`, each block
building the Bessel, cosine and phase matrices once.  The pass sees only
the rows with psi(r) != 0 and the frequency nodes whose weight
w rho^-s psi(rho) f(rho) is nonzero (psi vanishes for rho <= 1, a bump
profile between its bumps); every other row is an exact zero.  The last
triple is kept in a one-entry memo keyed on the bytes of its inputs, so
asking for the three parts in turn costs one build.  `split_checks`
measures main + remainder - full and the remainder's norm ratio over
random profile/selector pairs.  The kernel

    K(x) = chi(x/m) sup_{|t|<=2} | int e^{i x xi} e^{i t |xi|^a}
                                    gamma_{-2s}(xi) chi(xi/mu)^2 dxi |

is sampled on [-2m, 2m], its sup over |t| <= 2 taken as a certified
Chebyshev sup with power 2 rho^a, with a trapezoidal L1 estimate; its
stability as mu grows reflects the uniform high-frequency estimate behind
the maximal bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# bessel_kernel_reduced: unused; perfbench/spans.py traces it.
from .bessel import (_SQRT_2_OVER_PI, AsymptoticCertificate, bessel_j,
                     bessel_kernel_reduced)
from .cutoffs import CutoffFamily, chi, gamma_weight, psi
from .oscillatory import SymbolParams
from .profiles import Profile, bump
from .quadrature import oscillatory_rule, panel_rule
from .radial import RadialKernel, chebyshev_degree, profile_rule, row_chunks


@dataclass(frozen=True)
class TimeSelector:
    """Measurable time assignment r -> t(r) sampled on a fixed grid."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.shape != v.shape or g.ndim != 1:
            raise ValueError("selector grid and values must be 1-D and aligned")
        if not np.all(np.abs(v) < 1):
            raise ValueError("selector values must satisfy |t| < 1")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    @staticmethod
    def random(grid, seed: int) -> "TimeSelector":
        rng = np.random.default_rng(seed)
        g = np.asarray(grid, dtype=float)
        return TimeSelector(grid=g, values=0.999 * rng.uniform(-1, 1, g.size))


def selector_grid(r_max: float, rho_max: float):
    """Radial evaluation grid resolving kernels oscillating up to rho_max."""
    return oscillatory_rule(0.0, r_max, linear_rate=rho_max,
                            panel_cap=r_max / 16.0, forced=(1.0, 2.0))


def apply_selector_multiplier(f: Profile, sel: TimeSelector,
                              p: SymbolParams) -> np.ndarray:
    """The 1-D linearized operator with the dyadic Sobolev weight.

    f is interpreted as an even profile on the line.  Frequency nodes whose
    weight is exactly zero are dropped, and the cosine-phase kernel is
    built in the row blocks of `radial.row_chunks`, at 64 bytes per element.
    """
    x, t = sel.grid, sel.values
    rho, w = profile_rule(f, 1, osc_rate=float(np.max(np.abs(x))),
                          power_coeff=1.0, power=p.a)
    vec = w * np.sqrt(gamma_weight(-2.0 * p.s, rho)) * f(rho)
    live = vec != 0.0
    rho, vec = rho[live], vec[live]
    rho_a = rho ** p.a
    out = np.zeros(x.size, dtype=complex)
    # Even integrand: int_R = 2 int_0^inf cos(x xi) ... dxi.
    for rows in row_chunks(x.size, 64 * rho.size):
        kern = np.exp(1j * np.outer(t[rows], rho_a))
        kern *= np.cos(np.outer(x[rows], rho))
        out[rows] = 2.0 * (kern @ vec)
    return out


# The last triple: content key -> {full, main, remainder}.  One entry, since
# callers ask for the three parts of one operator back to back.
_SELECTOR_MEMO: dict = {}
_PARTS = ("full", "main", "remainder")


def _selector_pass(r, t, rho, weights, lam, a):
    """Full, main and remainder before the range cutoff, in row blocks.

    Each block of `radial.row_chunks` builds (r rho)^(1/2) J_lam, the
    cosine and the phase once and holds about 64 bytes per element; with
    no column there is no block.
    """
    out = {part: np.zeros(r.size, dtype=complex) for part in _PARTS}
    rho_a = rho ** a
    for rows in row_chunks(r.size, 64 * rho.size):
        z = np.outer(r[rows], rho)
        full = np.sqrt(z) * bessel_j(lam, z)
        z -= lam * (0.5 * math.pi)
        z -= 0.25 * math.pi
        main = np.cos(z, out=z)
        main *= _SQRT_2_OVER_PI
        phase = np.exp(1j * np.outer(t[rows], rho_a))
        prod = np.empty_like(phase)
        out["full"][rows] = np.multiply(full, phase, out=prod) @ weights
        out["main"][rows] = np.multiply(main, phase, out=prod) @ weights
        full -= main
        out["remainder"][rows] = np.multiply(full, phase, out=prod) @ weights
    return out


def selector_parts(f: Profile, sel: TimeSelector, p: SymbolParams) -> dict:
    """The psi-localized radial linearized operator and its two pieces.

    Returns {"full", "main", "remainder"}: "main" keeps the cosine main term
    of the Bessel kernel and "remainder" the difference full - main, taken
    node by node and contracted on its own, so main + remainder recomposes
    the full operator only up to rounding.  One row-blocked pass builds the
    Bessel, cosine and phase matrices once for all three, and only on the
    rows with psi(r) != 0 and the columns whose weight
    w rho^-s psi(rho) f(rho) is nonzero: every other element is multiplied
    by an exact zero, so the skipped rows are exact zeros.  If no row or no
    column is left, bessel_j is not called.  The last result is memoized
    in one entry keyed on the exact bytes of everything it depends on, so
    a hit returns what a recomputation would; the arrays returned are
    always fresh copies.
    """
    r, t = sel.grid, sel.values
    rho, w = profile_rule(f, 1, osc_rate=float(np.max(np.abs(r))),
                          power_coeff=1.0, power=p.a)
    weights = w * rho ** (-p.s) * psi(rho) * f(rho)
    key = (np.array([p.lam, p.a]).tobytes(), r.tobytes(), t.tobytes(),
           rho.tobytes(), weights.dtype.str, weights.tobytes())
    if key not in _SELECTOR_MEMO:
        psi_r = psi(r)
        rows = psi_r != 0.0
        cols = weights != 0.0
        parts = {k: np.zeros(r.size, dtype=complex) for k in _PARTS}
        kept = _selector_pass(r[rows], t[rows], rho[cols], weights[cols],
                              p.lam, p.a)
        for k, v in kept.items():
            parts[k][rows] = psi_r[rows] * v
        _SELECTOR_MEMO.clear()
        _SELECTOR_MEMO[key] = parts
    return {k: v.copy() for k, v in _SELECTOR_MEMO[key].items()}


def apply_selector_radial(f: Profile, sel: TimeSelector, p: SymbolParams,
                          part: str = "full") -> np.ndarray:
    """One piece of the psi-localized radial linearized operator.

    part is "full", "main" or "remainder"; the value is a copy of
    `selector_parts(f, sel, p)[part]`, so asking for the three parts of one
    operator in turn builds its matrices once.
    """
    if part not in _PARTS:
        raise ValueError("part must be 'full', 'main' or 'remainder'")
    return selector_parts(f, sel, p)[part]


def l2_halfline(values: np.ndarray, weights: np.ndarray) -> float:
    return math.sqrt(float(np.sum(weights * np.abs(values) ** 2)))


def profile_l2(f: Profile) -> float:
    """L2 norm of the profile f on the half-line, on its own rule."""
    rho, w = profile_rule(f, 1)
    return l2_halfline(f(rho), w)


def split_checks(p: SymbolParams, pairs: int,
                 selector_seed0: int) -> tuple[float, float]:
    """The cosine split and its remainder bound over random pairs.

    Pair k < pairs applies the radial operator on selector_grid(45, 22) to
    random_test_profile(k) along TimeSelector.random(grid, selector_seed0 + k).
    Returns the largest |main + remainder - full| and the largest
    ||remainder|| / ||f||, the ratio `remainder_constant` bounds.
    """
    grid, gw = selector_grid(45.0, 22.0)
    max_dev = max_ratio = 0.0
    for k in range(pairs):
        f = random_test_profile(k)
        sel = TimeSelector.random(grid, selector_seed0 + k)
        parts = selector_parts(f, sel, p)
        dev = np.abs(parts["main"] + parts["remainder"] - parts["full"]).max()
        max_dev = max(max_dev, float(dev))
        ratio = l2_halfline(parts["remainder"], gw) / profile_l2(f)
        max_ratio = max(max_ratio, ratio)
    return max_dev, max_ratio


def remainder_constant(p: SymbolParams, cutoffs: CutoffFamily,
                       cert: AsymptoticCertificate) -> float:
    """Explicit bound constant for the remainder piece of the radial split.

    Product of the certified kernel constant with the two cutoff integrals
    (int psi(r)^2 / r^2 dr)^(1/2) and (int rho^(-2-2s) psi(rho) drho)^(1/2);
    the inner integral converges exactly when s > -1/2.
    """
    if p.s <= -0.5:
        raise ValueError("inner integral diverges for s <= -1/2")
    # psi vanishes on [0,1] and equals 1 beyond 2; split both integrals at 2.
    x, w = panel_rule(np.linspace(1.0, 2.0, 9), order=16)
    psi_vals = cutoffs.psi(x)
    int_range = float(np.sum(w * psi_vals ** 2 / x ** 2)) + 0.5
    expo = 2.0 + 2.0 * p.s
    int_freq = float(np.sum(w * psi_vals * x ** (-expo)))
    int_freq += 2.0 ** (1.0 - expo) / (expo - 1.0)
    return cert.c_lambda_empirical * math.sqrt(int_range) * math.sqrt(int_freq)


def kernel_sample(m: float, mu: float, p: SymbolParams):
    """Sample K(x) on [-2m, 2m] and estimate its L1 norm, with its audit.

    The sup over |t| <= 2 is the certified continuous sup of
    `RadialKernel.chebyshev_sup` with power 2 rho^a, which maps t in [-1, 1]
    onto [-2, 2]; its degree is `radial.chebyshev_degree` of the layer's
    type, the rule of `converged_maximal_field`.  m and mu must be finite.
    The even integrand on the line is the radial kernel at n = 1:
    2 cos(x xi) = sqrt(2 pi) k_{-1/2}(x xi).
    Returns (x, K, l1_estimate, t_degree, l1_bound): l1 by the trapezoidal
    rule, t_degree the Chebyshev degree in t, and l1_bound the same
    trapezoid of chi(x/m) times the certified error of the sup at x, so the
    sup's error moves l1_estimate by at most l1_bound.
    """
    if not (1 < m < math.inf and 1 < mu < math.inf):
        raise ValueError("localization parameters must be finite and exceed 1")
    hi = 2.0 * mu
    x_half = np.linspace(0.0, 2.0 * m, max(512, int(64 * m) + 1))
    rho, w = oscillatory_rule(0.0, hi, linear_rate=float(x_half[-1]),
                              power_coeff=2.0, power=p.a, panel_cap=0.25)
    vec = w * gamma_weight(-2.0 * p.s, rho) * chi(rho / mu) ** 2
    layer = RadialKernel(-0.5, x_half, rho, math.sqrt(2.0 * math.pi) * vec,
                         2.0 * rho ** p.a)
    degree = chebyshev_degree(layer.tau)
    sup, _, bound = layer.chebyshev_sup(degree)
    chi_x = chi(x_half / m)
    k_half = chi_x * sup
    l1 = 2.0 * float(np.trapezoid(k_half, x_half))
    l1_bound = 2.0 * float(np.trapezoid(chi_x * bound, x_half))
    x_full = np.concatenate([-x_half[:0:-1], x_half])
    k_full = np.concatenate([k_half[:0:-1], k_half])
    return x_full, k_full, l1, degree, l1_bound


def maximal_kernel(m: float, mu: float, p: SymbolParams):
    """(x, K, l1_estimate) of `kernel_sample`."""
    return kernel_sample(m, mu, p)[:3]


def tilde_field(g: Profile, p: SymbolParams, r, t,
                freq_cut=None) -> np.ndarray:
    """The weighted propagator int e^{i(x.xi + t|xi|^a)} <xi>^{-s/2} zeta g dxi.

    freq_cut selects the frequency localization zeta from {None, "chi",
    "psi"}; None means no cutoff.  Radially reduced like the main
    propagator, shape (len(r), len(t)).
    """
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    rho, w = profile_rule(g, p.n, osc_rate=float(np.max(r_arr)),
                          power_coeff=1.0, power=p.a)
    zeta = {"chi": chi, "psi": psi, None: lambda v: 1.0}[freq_cut]
    base = w * rho ** (p.n - 1) * (1.0 + rho * rho) ** (-p.s / 2.0) * g(rho)
    base = (2.0 * math.pi) ** (p.n / 2.0) * base * zeta(rho)
    return RadialKernel(p.lam, r_arr, rho, base, rho ** p.a).field(t_arr)


def recompose_residual(g: Profile, p: SymbolParams, r, t) -> float:
    """Max deviation between the whole weighted propagator and its 4 pieces.

    The pieces are the frequency pieces F_chi and F_psi of `tilde_field`
    times chi(r) and psi(r), summed as chi F_chi, psi F_chi, chi F_psi,
    psi F_psi; they must recompose exactly because chi + psi = 1 in both
    variables.  Each frequency piece is evaluated once.
    """
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    whole = tilde_field(g, p, r_arr, t)
    cuts = [chi(r_arr)[:, None], psi(r_arr)[:, None]]
    total = np.zeros_like(whole)
    for fc in ("chi", "psi"):
        piece = tilde_field(g, p, r_arr, t, fc)
        for cut in cuts:
            total = total + cut * piece
    return float(np.max(np.abs(whole - total)))


def random_test_profile(seed: int) -> Profile:
    """Random smooth compactly supported profile on [1, 20] for split tests."""
    rng = np.random.default_rng(seed)
    parts = []
    for _ in range(3):
        center = rng.uniform(2.5, 16.0)
        width = rng.uniform(0.8, 2.5)
        parts.append(bump(center, width).scaled(rng.uniform(-1.0, 1.0)))
    out = parts[0]
    for q in parts[1:]:
        out = out.plus(q)
    return out
