"""Fourier transforms of radial functions via the 1-D Bessel-kernel formula.

For f(x) = f0(|x|) on R^n the transform fhat(xi) = int e^{-i x.xi} f(x) dx
depends only on rho = |xi| and reduces to

    fhat(rho) = (2 pi)^(n/2) rho^(-n/2+1) int_0^inf f0(r) J_{n/2-1}(r rho) r^(n/2) dr.

Internally the equivalent form with the entire kernel
k_lam(z) = J_lam(z)/z^lam (lam = n/2 - 1),

    fhat(rho) = (2 pi)^(n/2) int_0^inf f0(r) k_lam(r rho) r^(n-1) dr,

is used so that rho = 0 needs no special casing: k_lam(0) = 2^(-lam)/Gamma(lam+1)
makes fhat(0) = sphere_factor(n) * int f0 r^(n-1) dr, the integral of f.

`RadialKernel` contracts k_lam(x_i * nodes_j) for the transform itself
(`hankel_fourier` is its field at t = 0), the propagator, the maximal
fields, the weighted split fields and the 1-D sup-in-t kernel
(lam = -1/2, since 2 cos z = sqrt(2 pi) k_{-1/2}(z)).  One sampler streams
the kernel: it phases the weights once, evaluates one `row_chunks` chunk
of rows, contracts it against them into samples at the given times and
drops it, so no call holds more than one chunk, and a stack of bases on
the same nodes (the modulations of one profile) shares every chunk.
A layer whose rows are panel nodes, as the maximal fields' G7/K15 rows
are, evaluates its far rows, x min(nodes) >= bessel.HANKEL_Z0, by Hankel's
expansion (DLMF 10.17.3) with e^{i x rho} = e^{i mid rho} e^{i half ref rho}
taken from a per-panel and a per-half-width table, and adds the
expansion's truncation bound (DLMF 10.17(iii)) to each such row's error
bound; every other row comes from `bessel_kernel_reduced`.
`field(t)` copies the samples out; `chebyshev_sup(K)` samples the K + 1
Chebyshev times and returns (sup, arg, bound), the certified continuous
sup over [-1, 1] of one interpolant per row, a time reaching it and its
error bound.  A layer with a real base, as every layer of a real profile
has, is real in all but its phases: demodulated, u(x, -t) = conj u(x, t),
so Re u is even in t, Im u is odd and |u| is even.  Its interpolant keeps
the parity (Re p has only even Chebyshev coefficients, Im p only odd
ones), so such a layer is sampled at the K/2 + 1 times t >= 0 only and
searched over t in [0, 1], and every arg it returns is >= 0.

The inhomogeneous Sobolev norm of f is computed on the frequency side,

    sobolev_norm = (2 pi)^(-n/2) ( sphere_factor(n)
                     * int (1+rho^2)^s |g(rho)|^2 rho^(n-1) drho )^(1/2),

normalized so s = 0 recovers ||f||_{L2(R^n)}, by Parseval.

`nd_oracle` evaluates the same transform by direct tensor-product quadrature
over a truncated box; it exists purely as an independent cross-check, a
direct sum of f(|x|) over tensor nodes with no Bessel function and no
radial formula.  Every axis rule is mirrored by construction, so the box is
symmetric under x_k -> -x_k and, on the transverse axes, x2 <-> x3;
`nd_oracle_batch` sums each orbit of nodes once, weighted by its size, and
evaluates f only where |x| can lie in a compact support.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .bessel import (_SQRT_2_OVER_PI, HANKEL_Z0, bessel_kernel_reduced,
                     hankel_series)
from .profiles import NumericalFailure, Profile
from .quadrature import PHASE_BUDGET, oscillatory_rule

_CLIP_MARGIN = 1e-12     # relative widening of the oracle's support clip
_T_CHUNK = 384           # times per `_phases` call: temporaries ~2.5x its matrices
_SAMPLE_BYTES = 2 ** 24  # soft cap on one row chunk's kernel rows and values
_FAR_BLOCK = 2 ** 14     # kernel elements per block of Hankel rows: in L2 cache
_DENSE = 8               # dense search points per Chebyshev degree
_SEARCH_ROWS = 256       # rows of stacked bases one dense search may take
_NEWTON_STEPS = 3
_ELLIPSE_R = 1.0 + np.logspace(-6.0, 4.0, 2048)  # Bernstein ellipse parameters
_MAX_LEVEL = 13          # Chebyshev degree <= 2^13
# A-priori target of the Bernstein bound relative to A_i = (|kernel| @ |base|)_i.
# A maximal field's range-norm certificate is this times ||A|| / ||sup||
# (about 2-3 on the sweep families), far inside norms._REL_TOL / 2.
_CHEB_TOL = 1e-6


def sphere_factor(n: int) -> float:
    """Surface measure of the unit sphere in R^n: 2 pi^(n/2) / Gamma(n/2)."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def profile_rule(g: Profile, n: int, osc_rate: float = 0.0,
                 power_coeff: float = 0.0, power: float = 1.0,
                 include_modulation: bool = True, budget: float = PHASE_BUDGET):
    """Quadrature nodes/weights over the effective support of a profile.

    osc_rate is the linear oscillation rate (radians per unit rho) of any
    kernel multiplying the profile; power_coeff/power describe an extra
    monotone phase coeff * rho^power.  The profile's own modulation rate and
    smoothness scale are folded in automatically; integrands that only see
    |g| (norms) pass include_modulation=False so that modulated and plain
    profiles share the identical rule.  budget is the phase in radians
    per panel.
    """
    lo = g.lower_support()
    hi = g.truncation_radius(n)
    if not hi > lo:
        raise ValueError("profile has empty effective support")
    forced = ()
    if g.support is not None:
        # Mollifier-type profiles are flat but wildly differentiated near
        # their support endpoints; geometric grading keeps panels small there.
        width = hi - lo
        grades = [g.scale * 2.0 ** (-k) for k in range(0, 7)]
        forced = tuple(lo + d for d in grades if d < width) + \
                 tuple(hi - d for d in grades if d < width)
    rate = osc_rate + (g.modulation_rate if include_modulation else 0.0)
    return oscillatory_rule(lo, hi, linear_rate=rate,
                            power_coeff=power_coeff, power=power,
                            panel_cap=g.scale / 2.0, forced=forced,
                            budget=budget)


def sobolev_norm(g: Profile, n: int, s: float) -> float:
    """Inhomogeneous Sobolev norm of f from its frequency profile."""
    rho, w = profile_rule(g, n, include_modulation=False)
    # A diverging integral is reported below, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        dens = (1.0 + rho * rho) ** s * np.abs(g(rho)) ** 2 * rho ** (n - 1)
        total = sphere_factor(n) * float(np.sum(w * dens))
    if not np.isfinite(total):
        raise NumericalFailure("Sobolev integral diverged")
    return (2.0 * math.pi) ** (-n / 2.0) * math.sqrt(total)


def chebyshev_times(degree: int) -> np.ndarray:
    """The K + 1 Chebyshev-Lobatto times t_k = sin(pi (K - 2k) / (2K)), k = 0..K.

    They equal cos(pi k / K) and run from 1 down to -1.  The sine form makes
    them exactly symmetric, and an even K puts t_{K/2} = 0 among them.
    """
    if degree < 2 or degree % 2:
        raise ValueError("degree must be even and >= 2")
    return np.sin(np.pi * np.arange(degree, -degree - 1, -2) / (2 * degree))


def bernstein_bound(tau: float, degree: int) -> float:
    """Certified sup over [-1, 1] of |u - p_K| / A for an exponential sum.

    u(t) = sum_j c_j e^{i t q_j} with |q_j| <= tau is entire, and on the
    Bernstein ellipse E_R, where |Im t| <= (R - 1/R)/2, it is bounded by
    A e^{tau (R - 1/R)/2}, A = sum_j |c_j|.  So its degree-K Chebyshev
    interpolant errs by at most 4 A e^{tau (R - 1/R)/2} R^(-K) / (R - 1)
    (Trefethen, Approximation Theory and Approximation Practice, Thm 8.2).
    Every R > 1 gives a valid bound; this is the least one over a fixed
    logarithmic grid of R.
    """
    log_b = (math.log(4.0) + 0.5 * tau * (_ELLIPSE_R - 1.0 / _ELLIPSE_R)
             - degree * np.log(_ELLIPSE_R) - np.log(_ELLIPSE_R - 1.0))
    return float(np.exp(np.min(log_b)))


def chebyshev_degree(tau: float) -> int:
    """Least even K <= 2^_MAX_LEVEL with bernstein_bound(tau, K) <= _CHEB_TOL.

    tau is a layer's `RadialKernel.tau`.  Returns 2^_MAX_LEVEL when no such
    K exists.  The bound falls as K grows, so the search bisects.
    """
    lo, hi = 1, 2 ** _MAX_LEVEL // 2
    while lo < hi:
        mid = (lo + hi) // 2
        if bernstein_bound(tau, 2 * mid) <= _CHEB_TOL:
            hi = mid
        else:
            lo = mid + 1
    return 2 * lo


def row_chunks(rows: int, row_bytes: int) -> list[slice]:
    """Nearly equal slices of range(rows), each of at most _SAMPLE_BYTES at
    row_bytes per row but at least one row; none if rows or row_bytes is 0.
    The one row-chunk rule of the kernel layer and of `split`.

    Rows in different chunks need not round alike: BLAS may pick another
    kernel for a product of another size, so a chunked result matches one
    chunk to rounding, not bitwise.
    """
    if rows == 0 or row_bytes == 0:
        return []
    count = -(-rows // max(1, _SAMPLE_BYTES // row_bytes))
    edges = [k * rows // count for k in range(count)]
    return [slice(i0, i1) for i0, i1 in zip(edges, edges[1:] + [rows])]


def _interpolant_max(samples: np.ndarray, t: np.ndarray):
    """Per-row max over [-1, 1] of |p|, p interpolating samples at t.

    t is chebyshev_times(K).  With t = cos(theta), p = sum_m c_m cos(m theta)
    and the DCT-I of the samples gives the c_m.  A zero-padded DCT-I, in
    single precision since it only picks the starting angle, evaluates p at
    about _DENSE * K angles of [0, pi], and `_polished_max` polishes the best
    of them.  A real layer's samples satisfy s(-t) = conj s(t), so its c_m
    are real for even m and imaginary for odd m, and |p| is even in t:
    `_even_interpolant_max` finds the same max from half the samples.
    """
    rows, deg = samples.shape[0], t.size - 1
    coef = scipy.fft.dct(samples, type=1, axis=1) / deg
    coef[:, 0] *= 0.5
    coef[:, deg] *= 0.5
    # DCT-I of n + 1 points runs a length-2n real FFT: keep n 5-smooth.
    n_dense = scipy.fft.next_fast_len(_DENSE * deg, real=True)
    padded = np.zeros((rows, n_dense + 1), dtype=np.complex64)
    padded[:, :deg + 1] = coef
    padded[:, 0] *= 2.0
    dense = np.abs(scipy.fft.dct(padded, type=1, axis=1))   # 2 |p(cos theta_j)|
    # The ends, t = +-1, are samples and stationary points of |p|^2, even
    # about theta = 0 and pi, where a step would not leave them: start inside.
    spacing = np.pi / n_dense
    theta = np.clip(spacing * np.argmax(dense, axis=1), 0.5 * spacing,
                    np.pi - 0.5 * spacing)
    m = np.arange(deg + 1)
    m_coef, m2_coef = m * coef, m * m * coef
    powers = np.empty((rows, deg + 1), dtype=complex)

    def local(theta, slopes):
        _unit_powers(theta, powers)
        cos = powers.real
        q = np.einsum("ij,ij->i", cos, coef)
        if not slopes:
            return np.abs(q), None, None
        dq = -np.einsum("ij,ij->i", powers.imag, m_coef)
        d2q = -np.einsum("ij,ij->i", cos, m2_coef)
        return (np.abs(q), np.real(np.conj(q) * dq),
                np.real(np.conj(q) * d2q) + np.abs(dq) ** 2)

    return _polished_max(samples, t, theta, spacing, np.pi, local)


def _even_interpolant_max(samples: np.ndarray, t: np.ndarray):
    """`_interpolant_max` for a real layer, over t in [0, 1] only.

    t is chebyshev_times(K)[:K // 2 + 1], the times t >= 0, of which the
    last is 0.  A real layer has p(-t) = conj p(t), so |p| is even in t, Re p
    has only even Chebyshev coefficients and Im p only odd ones:

        Re c_2j = (2/K) DCT-I(Re s)_j,  halved at j = 0 and j = K/2,
        Im c_2j+1 = (2/K) DCT-III(Im s[:K/2])_j,

    on the samples s.  With theta_l = pi l / n_dense, l <= n_dense / 2,
    2 Re p(cos theta_l) is the DCT-I of the zero-padded even coefficients
    (the first doubled) and 2 Im p(cos theta_l), l < n_dense / 2, the DCT-II
    of the zero-padded odd ones; at l = n_dense / 2, t = 0, Im p is 0.  Both
    transforms are real, single precision and half the length of the
    complex one.  `_polished_max` polishes the best angle in [0, pi/2].
    """
    rows, half = samples.shape[0], t.size - 1
    even = scipy.fft.dct(samples.real, type=1, axis=1) / half
    even[:, 0] *= 0.5
    even[:, half] *= 0.5
    odd = scipy.fft.dct(samples.imag[:, :half], type=3, axis=1) / half
    # Dense angles on [0, pi/2]: n_dense = 2 n, n 5-smooth for both transforms.
    n = scipy.fft.next_fast_len(_DENSE * half, real=True)
    padded = np.zeros((rows, n + 1), dtype=np.float32)
    padded[:, :half + 1] = even
    padded[:, 0] *= 2.0
    dense = np.zeros((rows, n + 1), dtype=np.complex64)     # 2 p(cos theta_l)
    dense.real = scipy.fft.dct(padded, type=1, axis=1)
    padded = np.zeros((rows, n), dtype=np.float32)
    padded[:, :half] = odd
    dense.imag[:, :n] = scipy.fft.dct(padded, type=2, axis=1)
    # The ends, t = 1 and t = 0, are samples and stationary points of |p|^2
    # by symmetry, where a step would not leave them: start inside.
    spacing = np.pi / (2 * n)
    theta = np.clip(spacing * np.argmax(np.abs(dense), axis=1), 0.5 * spacing,
                    0.5 * np.pi - 0.5 * spacing)
    m = np.arange(2 * half + 1)
    m_even, m2_even = m[0::2] * even, m[0::2] ** 2 * even
    m_odd, m2_odd = m[1::2] * odd, m[1::2] ** 2 * odd
    powers = np.empty((rows, half + 1), dtype=complex)
    odd_powers = np.empty((rows, half), dtype=complex)

    def local(theta, slopes):
        # e^{i 2j theta}, and e^{i (2j + 1) theta} from them in one product.
        _unit_powers(2.0 * theta, powers)
        np.multiply(powers[:, :half], np.exp(1j * theta)[:, None],
                    out=odd_powers)
        cos_even, cos_odd = powers.real, odd_powers.real
        re = np.einsum("ij,ij->i", cos_even, even)
        im = np.einsum("ij,ij->i", cos_odd, odd)
        if not slopes:
            return np.hypot(re, im), None, None
        d_re = -np.einsum("ij,ij->i", powers.imag, m_even)
        d_im = -np.einsum("ij,ij->i", odd_powers.imag, m_odd)
        d2_re = -np.einsum("ij,ij->i", cos_even, m2_even)
        d2_im = -np.einsum("ij,ij->i", cos_odd, m2_odd)
        return (np.hypot(re, im), re * d_re + im * d_im,
                re * d2_re + im * d2_im + d_re ** 2 + d_im ** 2)

    return _polished_max(samples, t, theta, spacing, 0.5 * np.pi, local)


def _unit_powers(theta: np.ndarray, out: np.ndarray):
    """out[i, m] = e^{i m theta_i} by running products: error ~ m * eps, and
    no trigonometric function past the first power."""
    out[:, 0] = 1.0
    out[:, 1:] = np.exp(1j * theta)[:, None]
    np.cumprod(out, axis=1, out=out)


def _polished_max(samples, t, theta, spacing, top, local):
    """The larger of the best sample and the polished value of |p|, per row,
    with its time.

    From the starting angles theta in [0, top], steps on |p|^2 in theta, in
    double precision, polish the maximum (Newton where |p|^2 is concave,
    else one dense spacing uphill, never more than one spacing), and the
    best iterate is kept.  local(theta, slopes) returns |p(cos theta)| and,
    if slopes, the first and second theta-derivatives of |p|^2 / 2.
    """
    polished = np.zeros(theta.size)
    best_theta = theta
    for step in range(_NEWTON_STEPS + 1):
        value, slope, curv = local(theta, step < _NEWTON_STEPS)
        better = value > polished
        polished = np.where(better, value, polished)
        best_theta = np.where(better, theta, best_theta)
        if step == _NEWTON_STEPS:
            break
        newton = np.where(curv < 0.0, -slope / np.where(curv < 0.0, curv, -1.0),
                          np.sign(slope) * spacing)
        theta = np.clip(theta + np.clip(newton, -spacing, spacing), 0.0, top)
    mag = np.abs(samples)
    col = np.argmax(mag, axis=1)
    sampled = mag[np.arange(theta.size), col]
    at_sample = sampled >= polished
    return (np.where(at_sample, sampled, polished),
            np.where(at_sample, t[col], np.cos(best_theta)))


@dataclass(frozen=True)
class _FarRows:
    """A layer's Hankel-row tables (`RadialKernel._far`).

    mask marks the rows with x rho_min >= max(HANKEL_Z0, lam^2), rho_min the
    least node.  coef is sqrt(2/pi) times `bessel.hankel_series` at the
    least such x rho_min, tail its remainder coefficients, and cols the
    (K, 2 J) real view of (rho_min / rho_j)^(k + lam + 1/2) i^k.
    node_phase holds e^{i(h ref_l rho_j - lam pi/2 - pi/4)} for each
    distinct half-width h of a panel with a far row, one row per (h, l),
    and first_row[q] is the row of (h, 0) for panel q's half-width h.
    """

    mask: np.ndarray
    rho_min: float
    coef: np.ndarray
    tail: tuple
    cols: np.ndarray
    node_phase: np.ndarray
    first_row: np.ndarray


class RadialKernel:
    """u(x_i, t) = sum_j k_lam(x_i nodes_j) base_j e^{i t power_j}.

    The layer keeps (lam, x, nodes, base, power) and no kernel or result:
    every call streams the row chunks of `_samples`, so it evaluates every
    kernel element and every phase once, and holds the phases of every
    time and at most _SAMPLE_BYTES of kernel rows and their values.  base
    may be a (B, J) stack of bases on the same nodes, which then share
    every chunk, and every result gains a leading axis of length B.
    `field(t)` returns u at the times t, shape (len(x), len(t)).

    panels, when given, is (mid, half, ref) with
    x == (mid[:, None] + half[:, None] * ref).ravel(), as
    `quadrature._composite` builds a panel rule.  Then a row with
    z = x rho >= max(HANKEL_Z0, lam^2) at every node rho (and lam >= 0 or
    lam = -1/2) is a Hankel row (`bessel.hankel_series`):

        k_lam(x rho) = sqrt(2/pi) Re[z^(-lam-1/2) H(z) e^{i mid rho}
                                     e^{i(half ref rho - lam pi/2 - pi/4)}],

    with H(z) = sum_k a_k(lam) (i/z)^k.  The first two factors are one
    small real GEMM over the K series terms, the third is built per panel
    and the last once per distinct half-width, so a far kernel element
    costs a few products and no trigonometric function.  Every other row,
    and every chunk with no far row, takes bessel_kernel_reduced.  The
    series' remainder is bounded per row by `_truncation`.
    """

    def __init__(self, lam: float, x: np.ndarray, nodes: np.ndarray,
                 base: np.ndarray, power: np.ndarray, panels=None):
        if base.shape[-1] != nodes.size:
            raise ValueError("a base must match the kernel's columns")
        if panels is not None and panels[0].size * panels[2].size != x.size:
            raise ValueError("the panels must hold every row")
        self.lam = lam
        self.x = x
        self.nodes = nodes
        self.base = base
        self.power = power
        self.panels = panels

    @property
    def tau(self) -> float:
        """Exponential type of u in t once demodulated: half the spread of power."""
        return 0.5 * float(np.max(self.power) - np.min(self.power))

    @property
    def far_rows(self) -> int:
        """The number of Hankel rows."""
        return 0 if self._far is None else int(np.count_nonzero(self._far.mask))

    @functools.cached_property
    def _far(self) -> _FarRows | None:
        """The layer's Hankel-row tables, or None when no row is far."""
        lam = self.lam
        if self.panels is None or self.nodes.size == 0 or not (
                lam >= 0.0 or lam == -0.5):
            return None
        rho_min = float(np.min(self.nodes))
        z = self.x * rho_min
        mask = z >= max(HANKEL_Z0, lam * lam)
        if not mask.any():
            return None
        coef, tail = hankel_series(lam, float(np.min(z[mask])))
        k = np.arange(coef.size)
        i_k = np.array([1.0, 1j, -1.0, -1j])[k % 4, None]
        cols = (rho_min / self.nodes) ** (k + lam + 0.5)[:, None] * i_k
        mid, half, ref = self.panels
        far_panels = np.unique(np.flatnonzero(mask) // ref.size)
        widths, cls = np.unique(half[far_panels], return_inverse=True)
        first_row = np.zeros(mid.size, dtype=np.intp)
        first_row[far_panels] = cls * ref.size
        phase = np.multiply.outer(widths[:, None] * ref, self.nodes)
        phase -= lam * (0.5 * math.pi) + 0.25 * math.pi
        return _FarRows(mask, rho_min, _SQRT_2_OVER_PI * coef, tail,
                        cols.view(float),
                        np.exp(1j * phase).reshape(-1, self.nodes.size),
                        first_row)

    def _kernel(self, rows: slice) -> np.ndarray:
        """The kernel rows x[rows]: Hankel rows where `_far` marks them, one
        bessel_kernel_reduced call on the others."""
        far = self._far
        x = self.x[rows]
        if far is None or not far.mask[rows].any():
            return bessel_kernel_reduced(self.lam, np.outer(x, self.nodes))
        mask = far.mask[rows]
        kern = np.empty((x.size, self.nodes.size))
        if not mask.all():
            kern[~mask] = bessel_kernel_reduced(self.lam,
                                                np.outer(x[~mask], self.nodes))
        self._hankel_rows(far, rows.start, np.flatnonzero(mask), kern)
        return kern

    def _hankel_rows(self, far: _FarRows, start: int, pos: np.ndarray,
                     kern: np.ndarray):
        """Write the Hankel rows start + pos into kern[pos], in blocks of
        about _FAR_BLOCK elements so that their temporaries stay in cache."""
        mid, _, ref = self.panels
        panel, l = np.divmod(start + pos, ref.size)
        panels, panel = np.unique(panel, return_inverse=True)
        panel_phase = np.exp(1j * np.outer(mid[panels], self.nodes))
        node_row = far.first_row[panels][panel] + l
        # sqrt(2/pi) a_k z^(-k-lam-1/2) at z = x rho_min, by running products.
        z = self.x[start + pos] * far.rho_min
        lead = np.empty((pos.size, far.coef.size))
        lead[:, 0] = z ** -(self.lam + 0.5)
        lead[:, 1:] = (1.0 / z)[:, None]
        np.cumprod(lead, axis=1, out=lead)
        lead *= far.coef
        step = max(1, _FAR_BLOCK // self.nodes.size)
        buf = np.empty((2, min(step, pos.size), self.nodes.size), dtype=complex)
        for i0 in range(0, pos.size, step):
            blk = slice(i0, i0 + step)
            e, f = buf[:, :min(step, pos.size - i0)]
            np.take(panel_phase, panel[blk], axis=0, out=e)
            np.take(far.node_phase, node_row[blk], axis=0, out=f)
            e *= f
            # A one-row product would take BLAS's matrix-vector path, which
            # rounds otherwise: a row must not change with the chunking.
            terms = lead[blk] if len(e) > 1 else np.repeat(lead[blk], 2, axis=0)
            e *= (terms @ far.cols)[:len(e)].view(complex)
            kern[pos[blk]] = e.real

    def _truncation(self) -> np.ndarray:
        """Per row, a bound on the Hankel remainder over every column:
        sqrt(2/pi) z^(-lam-1/2) (|a_K| z^-K + |a_{K+1}| z^-K-1) at
        z = x rho_min, where it is largest (`bessel.hankel_series`); 0 on
        the other rows."""
        out = np.zeros(self.x.size)
        far = self._far
        if far is not None:
            z = self.x[far.mask] * far.rho_min
            out[far.mask] = (_SQRT_2_OVER_PI * z ** -(self.lam + 0.5)
                             * (far.tail[0] + far.tail[1] / z)
                             * z ** -float(far.coef.size))
        return out

    def _rows(self, a: np.ndarray) -> np.ndarray:
        """a, shaped base.shape[:-1] + (len(x), ...), as (B, len(x), ...)."""
        return a.reshape((-1, self.x.size) + a.shape[self.base.ndim:])

    def _phases(self, t: np.ndarray, power: np.ndarray) -> np.ndarray:
        """base_bj e^{i t_k power_j} as a real (B, J, 2 len(t)) stack: the
        real and imaginary parts of time k in columns 2k and 2k + 1, so a
        real kernel GEMM yields complex samples."""
        m = self.base[..., None] * np.exp(1j * np.outer(power, t))
        return m.reshape((-1,) + m.shape[-2:]).view(float)

    def _samples(self, t: np.ndarray, power: np.ndarray, value_bytes: int = 0):
        """(row slice, kernel rows, samples) per row chunk, with
        samples[b, i, k] = sum_j kernel_ij base_bj e^{i t_k power_j}, shape
        (B, rows, len(t)).

        The phase matrices of all times, 16 B J len(t) bytes, are built once
        in column chunks of _T_CHUNK and serve every row chunk.  Each column
        chunk takes one batched real matmul for every base: BLAS sees one
        GEMM per base, of the same shape as a single-base layer's, so a
        base's samples do not depend on the stack it is in.  A row chunk
        holds its kernel rows, its samples and value_bytes per row for the
        caller, who may overwrite the kernel rows.
        """
        stack = math.prod(self.base.shape[:-1])
        cols = [slice(j0, j0 + _T_CHUNK) for j0 in range(0, t.size, _T_CHUNK)]
        phases = [self._phases(t[c], power) for c in cols]
        row_bytes = 8 * self.nodes.size + 16 * stack * t.size + value_bytes
        for rows in row_chunks(self.x.size, row_bytes):
            kern = self._kernel(rows)
            samples = np.empty((stack, kern.shape[0], t.size), dtype=complex)
            for c, m in zip(cols, phases):
                samples[:, :, c] = (kern @ m).view(complex)
            yield rows, kern, samples

    def field(self, t: np.ndarray) -> np.ndarray:
        out = np.empty(self.base.shape[:-1] + self.x.shape + t.shape,
                       dtype=complex)
        stack = self._rows(out)
        for rows, _, samples in self._samples(t, self.power):
            stack[:, rows] = samples
        return out

    def chebyshev_sup(self, degree: int):
        """(sup, arg, bound): sup of |u| over t in [-1, 1] from its degree-K
        Chebyshev interpolant, a time reaching it, and the error bound.

        Demodulating by e^{-i t p0}, p0 the midpoint of power, leaves |u|
        unchanged and makes u of exponential type `tau`.  Each row is
        sampled once at chebyshev_times(K) and maximized by
        `_interpolant_max`, which takes as many bases at once as fit in
        _SEARCH_ROWS rows, and at least one.  A real base makes the
        demodulated u(x, -t) = conj u(x, t): its rows are sampled at the
        K/2 + 1 times t >= 0, chebyshev_times(K)[:K // 2 + 1], and
        maximized over t in [0, 1] by `_even_interpolant_max`, so arg >= 0;
        a complex base, a stack with any complex base included, takes the
        full path.  bound is
        bernstein_bound(tau, K) * A_i, A_i = (|kernel| @ |base|)_i, which
        bounds |u - p_K| on row i, plus, on a Hankel row, its `_truncation`
        times sum_j |base_j|.  A row chunk holds its kernel rows, the
        samples of every base and the dense search values of one such call;
        once the samples are taken, |kernel| overwrites the kernel rows.
        """
        t, search = chebyshev_times(degree), _interpolant_max
        if not np.iscomplexobj(self.base):
            t, search = t[:degree // 2 + 1], _even_interpolant_max
        shifted = self.power - 0.5 * (np.max(self.power) + np.min(self.power))
        error = bernstein_bound(self.tau, degree)
        out = [np.empty(self.base.shape[:-1] + self.x.shape) for _ in range(3)]
        sup, arg, bound = (self._rows(a) for a in out)
        abs_base = np.abs(self.base.reshape(len(sup), -1))
        trunc = np.outer(abs_base.sum(axis=1), self._truncation())
        search_bytes = 16 * (_DENSE * (t.size - 1) + 1)
        for rows, kern, samples in self._samples(t, shifted, search_bytes):
            abs_kern = np.abs(kern, out=kern)
            # One batched matrix-vector product per base, as for a single base.
            bound[:, rows] = (error * (abs_kern @ abs_base[..., None])[..., 0]
                              + trunc[:, rows])
            step = max(1, _SEARCH_ROWS // kern.shape[0])
            for b in range(0, len(sup), step):
                group = samples[b:b + step].reshape(-1, t.size)
                sup[b:b + step, rows], arg[b:b + step, rows] = (
                    v.reshape(-1, kern.shape[0])
                    for v in search(group, t))
        return tuple(out)


def hankel_fourier(f0: Profile, n: int, rho) -> np.ndarray | float:
    """Transform of the radial function with profile f0, at radii rho >= 0:
    the field at t = 0 of the layer with rows rho on f0's rule."""
    if n < 2:
        raise ValueError("radial reduction requires n >= 2")
    rho_arr = np.atleast_1d(np.asarray(rho, dtype=float))
    if np.any(rho_arr < 0):
        raise ValueError("rho must be nonnegative")
    r, w = profile_rule(f0, n, osc_rate=float(np.max(rho_arr)))
    base = w * r ** (n - 1) * f0(r)
    vals = RadialKernel(n / 2.0 - 1.0, rho_arr, r, base, r).field(np.zeros(1))
    vals = vals[:, 0] if np.iscomplexobj(base) else vals[:, 0].real
    out = (2.0 * math.pi) ** (n / 2.0) * vals
    if np.ndim(rho) == 0:
        return complex(out[0]) if np.iscomplexobj(out) else float(out[0])
    return out


def _axis_rule(f: Profile, n: int, xi_component: float):
    """Nodes and weights on [-P, P], P the truncation radius, mirrored by
    construction: the rule on [0, P] resolving xi_component, then its
    reflection, so x == -x[::-1] and w == w[::-1] hold bitwise.  0 is a
    panel edge, never a node, so every node has a distinct mirror image.
    """
    half = f.truncation_radius(n)
    x, w = oscillatory_rule(0.0, half, linear_rate=abs(xi_component),
                            panel_cap=f.scale / 2.0)
    return np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))


def nd_oracle(f: Profile, n: int, xi) -> complex:
    """Direct tensor-product quadrature of int e^{-i x.xi} f(|x|) dx.

    xi is an n-vector.  Only n = 2 and n = 3 are supported; the cost of
    larger n buys nothing for validation.  Each axis gets the mirrored
    `_axis_rule` resolving its own component of xi, and f is summed over
    every node of the box.
    """
    if n not in (2, 3):
        raise ValueError("oracle supports n in {2, 3} only")
    xi_vec = np.asarray(xi, dtype=float)
    if xi_vec.shape != (n,):
        raise ValueError("xi must be an n-vector")

    rules = [_axis_rule(f, n, xi_vec[k]) for k in range(n)]
    if n == 2:
        (x1, w1), (x2, w2) = rules
        r = np.hypot(x1[:, None], x2[None, :])
        vals = f(r)
        phase1 = np.exp(-1j * xi_vec[0] * x1) * w1
        phase2 = np.exp(-1j * xi_vec[1] * x2) * w2
        return complex(phase1 @ vals @ phase2)
    (x1, w1), (x2, w2), (x3, w3) = rules
    phase1 = np.exp(-1j * xi_vec[0] * x1) * w1
    phase2 = np.exp(-1j * xi_vec[1] * x2) * w2
    phase3 = np.exp(-1j * xi_vec[2] * x3) * w3
    plane = np.hypot(x1[:, None], x2[None, :])
    acc = 0.0 + 0.0j
    for k, x3k in enumerate(x3):
        r = np.sqrt(plane * plane + x3k * x3k)
        acc += phase3[k] * (phase1 @ f(r) @ phase2)
    return complex(acc)


def _transverse_orbits(y: np.ndarray, v: np.ndarray, n: int):
    """Squared radii, increasing, and weights of the transverse orbits.

    (y, v) is the half rule on (0, P].  The n - 1 transverse axes share the
    mirrored rule, so the box is symmetric under every sign flip and, for
    n = 3, under x2 <-> x3.  One orbit per node y_k (n = 2, weight 2 v_k),
    or per pair k <= l (n = 3, weight 8 v_k v_l, or 4 v_k^2 on the
    diagonal), stands for all of its images.
    """
    if n == 2:
        return y * y, 2.0 * v
    k, l = np.triu_indices(y.size)
    sq = y[k] * y[k] + y[l] * y[l]
    wt = np.where(k == l, 4.0, 8.0) * v[k] * v[l]
    order = np.argsort(sq, kind="stable")
    return sq[order], wt[order]


def nd_oracle_batch(f: Profile, n: int, rho_list) -> np.ndarray:
    """The tensor-quadrature transform at xi = (rho, 0, ...) for several rho.

    The sum runs over the same box as `nd_oracle`'s, on mirrored axis
    rules, but visits each symmetry orbit of nodes once, weighted by its
    size (`_transverse_orbits`).  The transverse axes carry no phase, so
    h(x1) = sum over the transverse plane of w f(|x|) is computed once per
    node x1 > 0; h is even, so the phase contraction over the first axis is
    2 sum w1 cos(rho x1) h(x1) over those nodes and their weights w1.  For a
    compactly supported f with support [lo, hi], each x1 slice evaluates f
    only on the contiguous run of sorted squared radii s with
    lo^2 <= x1^2 + s <= hi^2, widened on both sides by _CLIP_MARGIN * hi^2,
    far above the rounding of x1^2 + s, so no node where f != 0 is dropped.
    It stays a direct sum of f(|x|) over tensor nodes and uses no Bessel
    function or radial formula.

    The first axis gets one rule, sized for the largest |rho|; `nd_oracle`
    sizes it for each xi, so at smaller rho the two use different nodes and
    agree to quadrature accuracy only.
    """
    if n not in (2, 3):
        raise ValueError("oracle supports n in {2, 3} only")
    rho_arr = np.atleast_1d(np.asarray(rho_list, dtype=float))
    x1, w1 = _axis_rule(f, n, float(np.max(np.abs(rho_arr))))
    x1, w1 = x1[x1.size // 2:], w1[w1.size // 2:]
    y, v = _axis_rule(f, n, 0.0)
    sq, wt = _transverse_orbits(y[y.size // 2:], v[v.size // 2:], n)
    x1_sq = x1 * x1
    if f.support is None:
        starts, stops = np.zeros(x1.size, int), np.full(x1.size, sq.size)
    else:
        lo, hi = f.support
        margin = _CLIP_MARGIN * hi * hi
        starts = np.searchsorted(sq, lo * lo - x1_sq - margin, side="left")
        stops = np.searchsorted(sq, hi * hi - x1_sq + margin, side="right")
    h = np.array([f(np.sqrt(xs + sq[i:j])) @ wt[i:j] if j > i else 0.0
                  for xs, i, j in zip(x1_sq, starts, stops)])
    out = 2.0 * (np.cos(np.outer(rho_arr, x1)) @ (w1 * h))
    return out.astype(complex)
