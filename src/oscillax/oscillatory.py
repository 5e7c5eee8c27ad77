"""Time-evolved oscillatory integrals of radial data.

The propagator applies the unimodular multiplier e^{i t |xi|^a} to fhat and
inverts the transform:

    u(x, t) = (2 pi)^(-n) int e^{i(x.xi + t|xi|^a)} fhat(xi) dxi.

For radial data with frequency profile g(rho) this reduces to the 1-D
integral (lam = n/2 - 1, k_lam(z) = J_lam(z)/z^lam)

    u(r, t) = (2 pi)^(-n/2) int_0^inf k_lam(r rho) rho^(n-1) e^{i t rho^a} g(rho) drho,

which at t = 0 is exactly the inverse transform, i.e. u(r, 0) = f(r).
a = 2 is the free Schroedinger propagator, a = 1 the half wave.

Quadrature panels resolve the combined oscillation of the Bessel kernel
(rate r) and of the time phase (total variation |t| * rho^a), cf. the step
rule documented in `quadrature`.  A direct 2-D tensor-quadrature oracle and
the closed-form Gaussian evolution are provided for validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import bessel_kernel_reduced
from .profiles import NumericalFailure, Profile
from .quadrature import oscillatory_rule
from .radial import RadialKernel, profile_rule, sobolev_norm, sphere_factor


@dataclass(frozen=True)
class SymbolParams:
    """Dispersion exponent a, dimension n, regularity s of one experiment."""

    a: float
    n: int
    s: float = 0.0

    def __post_init__(self):
        if not (self.a > 0 and np.isfinite(self.a)):
            raise ValueError("dispersion exponent a must be positive")
        if int(self.n) != self.n or self.n < 1:
            raise ValueError("dimension must be a positive integer")
        if not np.isfinite(self.s):
            raise ValueError("regularity s must be finite")

    @property
    def lam(self) -> float:
        return self.n / 2.0 - 1.0


# Phase radians per panel of the rho rules: four times quadrature.PHASE_BUDGET.
# Every maximal field audits its rule against one at half this budget.
FREQUENCY_BUDGET = 32.0


def frequency_rule(g: Profile, p: SymbolParams, r_max: float, t_max: float,
                   refine: int = 1):
    """rho-quadrature resolving both the kernel and time oscillations.

    Its panels accumulate at most FREQUENCY_BUDGET / refine radians of the
    phase r_max * rho + t_max * rho^a, plus the profile's own modulation.
    """
    return profile_rule(g, p.n, osc_rate=abs(r_max),
                        power_coeff=abs(t_max), power=p.a,
                        budget=FREQUENCY_BUDGET / refine)


def propagator(g, p: SymbolParams, r, rho_rule, panels=None) -> RadialKernel:
    """The propagator at radii r on a rho rule: its `field(t)` is u(r, t).

    g is a profile, or a sequence of profiles that share the rule: the
    layer then stacks one base per profile, and every kernel chunk serves
    them all.  panels, the (mid, half, ref) that r was built from, lets
    its far rows take the Hankel path (`radial.RadialKernel`).
    """
    rho, w = rho_rule
    weight = (2.0 * math.pi) ** (-p.n / 2.0) * w * rho ** (p.n - 1)
    vals = g(rho) if isinstance(g, Profile) else np.stack([gi(rho) for gi in g])
    return RadialKernel(p.lam, r, rho, weight * vals, rho ** p.a, panels)


def dispersive_field(g: Profile, p: SymbolParams, r, t, *, rho_rule=None):
    """Field values u(r_i, t_j); complex array of shape (len(r), len(t)).

    Scalar r/t inputs collapse the corresponding axis.
    """
    if p.n < 2:
        raise ValueError("the radial reduction requires n >= 2")
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(r_arr >= 0):
        raise ValueError("radii must be nonnegative")
    if not np.all(np.abs(t_arr) < 1):
        raise ValueError("times must satisfy |t| < 1")
    rule = rho_rule if rho_rule is not None else frequency_rule(
        g, p, r_max=float(np.max(r_arr, initial=0.0)),
        t_max=float(np.max(np.abs(t_arr), initial=0.0)))
    out = propagator(g, p, r_arr, rule).field(t_arr)
    out = out[tuple(0 if np.ndim(v) == 0 else slice(None) for v in (r, t))]
    return complex(out) if np.ndim(out) == 0 else out


def dispersive_field_2d_oracle(g: Profile, p: SymbolParams, x, t: float) -> complex:
    """Direct planar quadrature of the propagator at n = 2; test oracle only.

    Requires a compactly supported frequency profile.  x may be a scalar
    radius (placed on the first axis) or a 2-vector.
    """
    if p.n != 2:
        raise ValueError("the direct oracle is implemented for n = 2 only")
    if g.support is None:
        raise ValueError("the direct oracle requires compact frequency support")
    if not abs(t) < 1:
        raise ValueError("time must satisfy |t| < 1")
    x_vec = np.zeros(2)
    if np.ndim(x) == 0:
        x_vec[0] = float(x)
    else:
        x_vec = np.asarray(x, dtype=float)
    hi = g.support[1]
    # Phase rate per axis: the spatial frequency plus a bound on the radial
    # derivative of t * rho^a over the support.
    extra = abs(t) * p.a * max(hi ** (p.a - 1.0),
                               max(g.support[0], 1e-2) ** (p.a - 1.0))
    rules = [oscillatory_rule(-hi, hi, linear_rate=abs(x_vec[k]) + extra,
                              panel_cap=g.scale / 2.0, forced=(0.0,))
             for k in range(2)]
    (x1, w1), (x2, w2) = rules
    rho = np.hypot(x1[:, None], x2[None, :])
    vals = g(rho) * np.exp(1j * t * rho ** p.a)
    p1 = np.exp(1j * x_vec[0] * x1) * w1
    p2 = np.exp(1j * x_vec[1] * x2) * w2
    return complex(p1 @ vals @ p2) / (2.0 * math.pi) ** 2


def gaussian_free_evolution(sigma: float, p: SymbolParams, r, t):
    """Closed form for g(rho) = exp(-(sigma rho)^2/2) under a = 2.

    With alpha = sigma^2/2 - i t,
        u(r, t) = (2 pi)^(-n) (pi/alpha)^(n/2) exp(-r^2/(4 alpha)).
    """
    if p.a != 2:
        raise ValueError("closed form available for a = 2 only")
    r_arr = np.asarray(r, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    alpha = 0.5 * sigma * sigma - 1j * t_arr
    out = ((2.0 * math.pi) ** (-p.n) * (math.pi / alpha) ** (p.n / 2.0)
           * np.exp(-r_arr ** 2 / (4.0 * alpha)))
    return out


# The one spatial truncation of R^n, for global fields and the isometry check.
_EXTENT_TOL = 3e-6       # |f| / peak past `spatial_extent`
_PAD = 6.0               # `arrival_radius` adds _PAD / scale


def spatial_extent(g: Profile, p: SymbolParams) -> float:
    """Radius beyond which |f| = |u(., 0)| stays below _EXTENT_TOL of its peak.

    Each candidate radius R gets a 769-row grid on [0, R] and the rho rule
    sized for it.  The grid is rejected, and R grows 1.7x, when some row at
    or past 70% of it (index 539 on) exceeds tol = _EXTENT_TOL times the
    grid's peak; otherwise the radius is the last such row plus R / 16.

    The layer sees the grid as 49 panels of 16 equally spaced rows, the
    last holding one row, so its far rows are Hankel rows
    (`radial.RadialKernel`).  |k_lam| <= k_lam(0) for lam >= -1/2, so every
    |u(r, 0)| on the rule is at most P = k_lam(0) sum_j |base_j|, the bases
    of `propagator`.  The 16 rows from index 539 are evaluated first, as
    one panel of their own: a row is a Hankel row in both evaluations or in
    neither, a Hankel element's amplitude is at most k_lam(0), and the two
    build its phase x rho from different panel centres, so their elements
    differ by at most 8 X eps k_lam(0), X the probe's largest x rho, and a
    Hankel remainder below rounding.  One of the rows over
    (tol + 4 (J + 2 X) eps) P, J the rule's nodes, is then over tol times
    the grid's peak however the two evaluations round their J-term sums,
    and proves the grid rejected without evaluating the rest.  Otherwise
    the whole grid is evaluated on the same rule and the test above
    decides.  The full-grid search of `dispersive_field` (no panels, every
    row by `bessel_kernel_reduced`) returns the same radius on every tested
    profile; the two could differ only where a grid value lies within
    rounding of the threshold.
    """
    radius = 6.0 / g.scale + g.modulation_rate + 6.0
    size, width = 769, 16
    first = math.ceil(0.7 * size)        # 539: the first row that can reject
    ref = np.linspace(-1.0, 1.0, width)
    k0 = float(bessel_kernel_reduced(p.lam, np.zeros(1))[0])
    for _ in range(10):
        # The grid's 49 panels, then the probe's: each within an ulp of its rows.
        grid = np.linspace(0.0, radius, size)
        step = radius / (size - 1)
        mid = (np.append(np.arange(0, size, width), first)
               + 0.5 * (width - 1)) * step
        half = np.full(mid.size, 0.5 * (width - 1) * step)
        rule = frequency_rule(g, p, r_max=radius, t_max=0.0)
        probe = propagator(g, p, grid[first:first + width], rule,
                           (mid[-1:], half[-1:], ref))
        x_rho = grid[first + width - 1] * float(np.max(rule[0]))
        slack = 4.0 * (rule[0].size + 2.0 * x_rho) * np.finfo(float).eps
        bound = (_EXTENT_TOL + slack) * k0 * float(np.sum(np.abs(probe.base)))
        if not np.any(np.abs(probe.field(np.zeros(1))) > bound):
            layer = propagator(g, p, grid, rule, (mid[:-1], half[:-1], ref))
            vals = np.abs(layer.field(np.zeros(1))[:, 0])
            peak = float(np.max(vals))
            if peak == 0.0:
                raise ValueError("zero profile")
            alive = np.nonzero(vals > _EXTENT_TOL * peak)[0]
            if alive.size and alive[-1] < first:
                return float(grid[min(alive[-1] + size // 16, size - 1)])
        radius *= 1.7
    raise NumericalFailure("field does not decay within the spatial extent search")


def arrival_radius(g: Profile, p: SymbolParams, t_max: float) -> float:
    """Radius holding the data up to time t_max.

    The spatial extent of f, plus the distance the fastest frequency of the
    effective support travels in time t_max, plus _PAD / scale.
    """
    hi = g.truncation_radius(p.n)
    lo_eff = max(g.lower_support(), 0.05)
    speed = p.a * t_max * max(hi ** (p.a - 1.0), lo_eff ** (p.a - 1.0))
    return spatial_extent(g, p) + speed + _PAD / g.scale


def isometry_ratios(g: Profile, p: SymbolParams, ts) -> np.ndarray:
    """|| u(., t) ||_{L2(R^n)} / || f ||_{L2(R^n)} for each t, computed radially.

    The multiplier e^{i t rho^a} has modulus one, so every time slice is an
    L2 isometry; these ratios returning 1 is an end-to-end quadrature check.
    The radial grid and the Bessel kernel are shared across all the times.
    A growth keeps every row and evaluates only the new stretch
    [r_old, r_new], on the rho rule for r_new; the audited outer tenth lies
    in it, since 0.9 r_new > r_old = r_new / 1.7.
    """
    t_arr = np.atleast_1d(np.asarray(ts, dtype=float))
    if not np.all(np.abs(t_arr) < 1):
        raise ValueError("times must satisfy |t| < 1")
    denom = sobolev_norm(g, p.n, 0.0)
    if denom == 0.0:
        raise ValueError("zero profile")
    t_max = float(np.max(np.abs(t_arr)))
    r_max = arrival_radius(g, p, t_max)
    hi = g.truncation_radius(p.n)
    # Low frequencies travel fast when a < 1, leaving far-field tails that
    # decay only polynomially; grow the truncation until the audited outer
    # 10 percent is negligible at the 1e-5 accuracy this check certifies.
    lo, totals = 0.0, 0.0
    for _attempt in range(5):
        r_nodes, r_w = oscillatory_rule(lo, r_max, linear_rate=2.0 * hi,
                                        panel_cap=min(1.0 / g.scale, r_max / 8.0))
        rho_rule = frequency_rule(g, p, r_max=r_max, t_max=t_max)
        u = dispersive_field(g, p, r_nodes, t_arr, rho_rule=rho_rule)
        dens = np.abs(u) ** 2 * r_nodes[:, None] ** (p.n - 1)
        totals = totals + sphere_factor(p.n) * (r_w @ dens)
        outer = r_nodes >= 0.9 * r_max
        tails = sphere_factor(p.n) * (r_w[outer] @ dens[outer])
        if np.all(tails <= 2e-6 * np.maximum(totals, 1e-300)):
            return np.sqrt(totals) / denom
        lo, r_max = r_max, 1.7 * r_max
    raise NumericalFailure("radial truncation would not certify the isometry check")
