"""Maximal functions over time, range norms, Sobolev norms, sweep records.

The maximal function sup_{|t|<1} |u(r, t)| is the continuous sup of a
Chebyshev interpolant in t, one per radius, whose degree is chosen before
sampling from the Bernstein-ellipse bound of the demodulated field (see
`radial.RadialKernel.chebyshev_sup`); the certified interpolation error is
carried into the range norm.  The L2 range norm aggregates sup values
against r^(n-1) dr over either the unit ball ("local") or a certified
truncation of R^n ("global"):

    range_norm = ( sphere_factor(n) * int_I sup(r)^2 r^(n-1) dr )^(1/2).

The radii are the nodes of G7/K15 Gauss-Kronrod panels, so one pass gives
the norm (K15) and its radial audit (G7, on the same rows), and a global
range grows by appending panels, never recomputing a row.

The inhomogeneous Sobolev norm of f is computed on the frequency side,

    sobolev_norm = (2 pi)^(-n/2) ( sphere_factor(n)
                     * int (1+rho^2)^s |g(rho)|^2 rho^(n-1) drho )^(1/2),

normalized so s = 0 recovers ||f||_{L2(R^n)}.  Sweep records collect the
ratio Q = range_norm / sobolev_norm per dyadic frequency scale N, and the
modulated average replaces the single ratio with a mean over radial
modulations e^{i y rho} of the squared local ratio.  A log-log slope of Q
(or of the averaged quantity) against N estimates the growth exponent whose
sign change locates the admissible-regularity threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Unused here; perfbench/spans.py traces these bindings: bessel_kernel_reduced,
# spatial_extent, oscillatory_rule.
from .bessel import bessel_kernel_reduced
from .oscillatory import (SymbolParams, arrival_radius, frequency_rule,
                          propagator, spatial_extent)
from .profiles import NumericalFailure, Profile, annular, shell
from .quadrature import kronrod_rule, oscillatory_rule, phase_breakpoints
from .radial import (chebyshev_degree, chebyshev_times, profile_rule,
                     sphere_factor)

_MAX_LEVEL = 13          # Chebyshev degree <= 2^13
_REL_TOL = 5e-3          # range-norm tolerance of the t and r checks
_TAIL_TOL = 1e-4         # largest radial tail share of a global field
# A-priori target of the Bernstein bound relative to A_i = (|kernel| @ |base|)_i.
# The range norm's certificate is this times ||A|| / ||sup|| (about 2-3 on the
# sweep families), far inside _REL_TOL / 2.
_CHEB_TOL = 1e-6


@dataclass(frozen=True)
class TimeGrid:
    """Finite increasing time grid inside (-1, 1), or [-1, 1] if closed."""

    points: np.ndarray
    level: int = -1
    closed: bool = False

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0:
            raise ValueError("time grid must be nonempty")
        if np.any(np.abs(pts) > 1) or (not self.closed and np.any(np.abs(pts) >= 1)):
            raise ValueError("times must satisfy |t| < 1")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @staticmethod
    def chebyshev(degree: int) -> "TimeGrid":
        """The degree + 1 Chebyshev-Lobatto times on [-1, 1], increasing.

        The level is the least L with degree <= 2^L, on the scale of
        _MAX_LEVEL, the cap on `converged_maximal_field`'s degree.
        """
        return TimeGrid(points=chebyshev_times(degree)[::-1],
                        level=(degree - 1).bit_length(), closed=True)

    @property
    def count(self) -> int:
        return int(self.points.size)


@dataclass(frozen=True)
class MaximalField:
    """Per-radius supremum over a time grid, with the maximizing time."""

    p: SymbolParams
    radii: np.ndarray
    weights: np.ndarray
    sup_values: np.ndarray
    argmax_t: np.ndarray
    t_grid: TimeGrid
    r_max: float
    tail_fraction: float
    t_converged: bool = True
    r_converged: bool = True
    norm_history: tuple = ()
    t_bound: Optional[float] = None   # certified relative range-norm error
    rho_points: int = 0               # nodes of the largest rho rule used
    r_audit: float = 0.0              # relative |K15 - G7| range-norm gap


def _range_norm_from(radii, weights, sup, n, keep=slice(None)) -> float:
    """( sphere_factor(n) sum_i w_i sup_i^2 r_i^(n-1) )^(1/2) over the rows kept."""
    dens = sup[keep] ** 2 * radii[keep] ** (n - 1)
    return math.sqrt(sphere_factor(n) * float(np.sum(weights[keep] * dens)))


def converged_maximal_field(g: Profile, p: SymbolParams, *,
                            local: bool = False,
                            _shared: Optional[tuple] = None) -> MaximalField:
    """Maximal field with a certified continuous sup in t.

    The sup over t in [-1, 1] comes from one Chebyshev interpolant per
    radius, of the degree the Bernstein bound asks for (at most
    2^_MAX_LEVEL); the field is t-converged when the certified
    interpolation error moves the range norm by at most _REL_TOL / 2.  The
    radii are the nodes of G7/K15 Gauss-Kronrod panels (`_range_grid`):
    the norm takes the K15 weights, and the field is r-converged when the
    G7 norm on the same rows agrees within _REL_TOL.  A global range starts
    at the arrival radius and grows by 1.5x until the tail carries less
    than _TAIL_TOL of the norm.  A growth keeps every row and appends
    panels on the new stretch only, with a rho rule sized for the new
    r_max; a kept row's rule resolves rate r_old, at least its own r.

    _shared, from `modulated_numerators`, lends a local field the rho rule
    of a wider modulation of the same profile and this field's rows of the
    certified sups that one stacked pass took for every modulation.
    """
    if _shared is not None and not local:
        raise ValueError("shared sups serve local fields only")
    r_first = 1.0 if local else arrival_radius(g, p, 1.0, tol=3e-6, pad=6.0)
    lo, r_max = 0.0, r_first
    rows = [()] * 6        # radii, K15 and G7 weights, sup, arg, bound
    history, rho_points, degree = [], 0, 0
    for growth in range(4):
        if growth:
            lo, r_max = r_max, 1.5 * r_max
        nodes, k_w, g_w = _range_grid(g, r_first, lo, r_max)
        if _shared is None:
            rho_rule = frequency_rule(g, p, r_max=r_max + g.modulation_rate,
                                      t_max=1.0)
            cert = _certified_sup(g, p, nodes, rho_rule)
        else:
            rho_rule, cert = _shared
        rho_points = max(rho_points, rho_rule[0].size)
        degree = max(degree, cert[3])
        rows = [np.concatenate(pair)
                for pair in zip(rows, (nodes, k_w, g_w) + cert[:3])]
        radii, k_w, g_w, sup, arg, bound = rows
        norm = _range_norm_from(radii, k_w, sup, p.n)
        history.append((r_max, _range_norm_from(radii, g_w, sup, p.n), norm))
        tail = 0.0 if local else _range_norm_from(
            radii, k_w, sup, p.n, radii >= 0.9 * r_max) / max(norm, 1e-300)
        if tail < _TAIL_TOL:
            break
    # Minkowski: |sup_i - true sup_i| <= bound_i moves the norm by at most
    # the norm of the bounds.
    t_bound = _range_norm_from(radii, k_w, bound, p.n) / max(norm, 1e-300)
    r_audit = abs(norm - history[-1][1]) / max(norm, 1e-300)
    return MaximalField(
        p=p, radii=radii, weights=k_w, sup_values=sup, argmax_t=arg,
        t_grid=TimeGrid.chebyshev(degree), r_max=r_max, tail_fraction=tail,
        t_converged=t_bound <= 0.5 * _REL_TOL,
        r_converged=tail < _TAIL_TOL and r_audit <= _REL_TOL,
        norm_history=tuple(history), t_bound=t_bound, rho_points=rho_points,
        r_audit=r_audit)


def _range_grid(g, r_first, lo, hi):
    """(nodes, K15 weights, G7 weights) on [lo, hi], with 1 as an edge and
    panels at most min(0.125 / scale, r_first / 16) wide, r_first the
    field's first r_max."""
    cap = min(0.125 / g.scale, r_first / 16.0)
    return kronrod_rule(phase_breakpoints(lo, hi, panel_cap=cap,
                                          forced=(1.0,)))


def _certified_sup(g, p, nodes, rho_rule):
    """(sup, arg, bound, degree) of the continuous sup in t of g's propagator.

    g may be a sequence of profiles; sup, arg and bound are then stacked,
    one row per profile, from one streamed pass over the kernel.
    """
    layer = propagator(g, p, nodes, rho_rule)
    degree = chebyshev_degree(layer.tau, _CHEB_TOL, 2 ** _MAX_LEVEL)
    layer.chebyshev_sup(degree)
    return layer.sup, layer.arg, layer.bound, degree


class InsufficientCoverage(NumericalFailure):
    """Raised when a global norm is requested from an under-truncated field."""


def range_norm(field_obj: MaximalField, p: SymbolParams,
               range_kind: str) -> float:
    """L2 aggregate of the sup values over the unit ball or all of R^n."""
    if range_kind not in ("local", "global"):
        raise ValueError("range must be 'local' or 'global'")
    if range_kind == "global" and field_obj.tail_fraction > 1e-3:
        raise InsufficientCoverage(
            f"radial tail carries {field_obj.tail_fraction:.2e} of the norm")
    radii = field_obj.radii
    return _range_norm_from(radii, field_obj.weights, field_obj.sup_values,
                            p.n, radii <= 1.0 if range_kind == "local"
                            else slice(None))


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


def sharpness_profile(family: str, N: float, a: float) -> Profile:
    """The frequency-localized family probed at dyadic scale N.

    "shell" is the designated worst family: a radial bump at rho = N whose
    width N^(1-a/2) is the widest that stays phase-coherent under the sup in
    t, so its maximal norm grows like N^(a/4) times its L2 norm.  "annular"
    is the plain dyadic annulus eta(rho/N).
    """
    if family == "shell":
        width = min(max(N ** (1.0 - a / 2.0), 1e-2), N / 2.0)
        return shell(N, width)
    if family == "annular":
        return annular(N)
    raise ValueError(f"unknown sweep family {family!r}")


@dataclass(frozen=True)
class SweepRecord:
    """One (family, N, s) experiment cell."""

    family: str
    N: float
    p: SymbolParams
    range_kind: str
    Q: float
    diagnostics: dict     # the cell's flag, grid sizes and t certificate
    A: Optional[float] = None

    @property
    def fit_value(self) -> float:
        return self.A if self.A is not None else self.Q


def modulated_numerators(g: Profile, p: SymbolParams,
                         y_grid) -> tuple[np.ndarray, list]:
    """Squared local maximal norms of the modulated data e^{iy rho} g.

    Returns the numerators together with the maximal field of each
    modulation, whose convergence flags the caller aggregates.  e^{i y rho}
    has modulus 1, so it changes only the base, and the rho rule of the
    widest |y|, whose phase budget only gets finer as the linear rate
    grows, resolves every smaller |y|.  So all modulations share that rule
    and one streamed kernel pass, which stacks their bases.
    """
    y_arr = np.atleast_1d(np.asarray(y_grid, dtype=float))
    if y_arr.size == 0:
        raise ValueError("the modulation grid must be nonempty")
    if np.any(np.abs(y_arr) >= 1):
        raise ValueError("modulations must satisfy |y| < 1")
    wide = g.modulate(float(np.max(np.abs(y_arr))))
    rho_rule = frequency_rule(wide, p, r_max=1.0 + wide.modulation_rate,
                              t_max=1.0)
    profiles = [g.modulate(float(y)) for y in y_arr]
    sup, arg, bound, degree = _certified_sup(
        profiles, p, _range_grid(g, 1.0, 0.0, 1.0)[0], rho_rule)
    out = np.empty(y_arr.size)
    fields = []
    for i, gy in enumerate(profiles):
        fld = converged_maximal_field(
            gy, p, local=True,
            _shared=(rho_rule, (sup[i], arg[i], bound[i], degree)))
        out[i] = range_norm(fld, p, "local") ** 2
        fields.append(fld)
    return out, fields


def exponent_fit(scales, values) -> float:
    """Least-squares slope of log(values) against log(scales)."""
    x = np.log(np.asarray(scales, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    if x.size < 4:
        raise ValueError("need at least 4 dyadic scales for a slope")
    if x.size != y.size:
        raise ValueError("scales and values must align")
    return float(np.polyfit(x, y, 1)[0])
