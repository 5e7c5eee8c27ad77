"""Maximal functions over time, range norms and sweep records.

The maximal function sup_{|t|<1} |u(r, t)| is the continuous sup of a
Chebyshev interpolant in t, one per radius, whose degree is chosen before
sampling from the Bernstein-ellipse bound of the demodulated field (see
`radial.RadialKernel.chebyshev_sup`); the certified interpolation error is
carried into the range norm.  The L2 range norm aggregates sup values
against r^(n-1) dr over either the unit ball ("local") or a certified
truncation of R^n ("global"):

    range_norm = ( sphere_factor(n) * int_I sup(r)^2 r^(n-1) dr )^(1/2).

The radii are the nodes of adaptive G7/K15 Gauss-Kronrod panels.  The K15
and G7 sums on a panel's 15 rows give its part of the norm and an error
indicator, |K15 - G7|; as in QUADPACK's adaptive routines, only the panels
whose indicator is over their width share of the target are bisected.  A
global range grows by appending panels, never evaluating a kept row again.

Sweep records collect the ratio Q = range_norm / sobolev_norm per dyadic
frequency scale N (`radial.sobolev_norm`), and the
modulated average replaces the single ratio with a mean over radial
modulations e^{i y rho} of the squared local ratio.  A log-log slope of Q
(or of the averaged quantity) against N estimates the growth exponent whose
sign change locates the admissible-regularity threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

# Unused here; perfbench/spans.py traces these bindings: bessel_kernel_reduced,
# spatial_extent, oscillatory_rule, profile_rule.
from .bessel import bessel_kernel_reduced
from .oscillatory import (SymbolParams, arrival_radius, frequency_rule,
                          propagator, spatial_extent)
from .profiles import NumericalFailure, Profile, annular, shell
from .quadrature import (KRONROD_NODES, kronrod_rule, oscillatory_rule,
                         panel_centres, phase_breakpoints)
from .radial import (chebyshev_degree, chebyshev_times, profile_rule,
                     sphere_factor)

_REL_TOL = 5e-3          # range-norm tolerance of the t and r checks
_TAIL_TOL = 1e-4         # largest radial tail share of a global field
# Radial bisection target: the panels' summed |K15 - G7| gap stays within
# _R_TOL of the K15 integral of sup^2 r^(n-1), so within _REL_TOL / 10 on
# the norm.
_R_TOL = _REL_TOL / 5
_ROUNDS = 8              # bisection rounds per radial segment


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
        radial._MAX_LEVEL, the cap on `chebyshev_degree`.
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
    r_audit: float = 0.0              # summed |K15 - G7| panel gaps on the norm
    r_panels: int = 0                 # G7/K15 panels of the final radii
    r_rows_evaluated: int = 0         # radii evaluated, discarded ones included
    r_rows_far: int = 0               # of those, radii evaluated as Hankel rows
    rho_audit: float = 0.0            # centre-row gaps to a finer rho rule


def _range_norm_from(radii, weights, sup, n, keep=slice(None)) -> float:
    """( sphere_factor(n) sum_i w_i sup_i^2 r_i^(n-1) )^(1/2) over the rows kept."""
    dens = sup[keep] ** 2 * radii[keep] ** (n - 1)
    return math.sqrt(sphere_factor(n) * float(np.sum(weights[keep] * dens)))


def converged_maximal_field(g: Profile, p: SymbolParams, *,
                            local: bool = False,
                            _shared: Optional[tuple] = None) -> MaximalField:
    """Maximal field with a certified continuous sup in t.

    The sup over t in [-1, 1] comes from one Chebyshev interpolant per
    radius, of the degree `radial.chebyshev_degree` asks for; the field is
    t-converged when the certified interpolation error moves the range norm
    by at most _REL_TOL / 2.  The
    radii are the nodes of adaptive G7/K15 Gauss-Kronrod panels
    (`_adaptive_panels`) and the norm takes their K15 weights.  r_audit is
    the panels' summed |K15 - G7| gap relative to the norm; the field is
    r-converged when bisection met its target, which puts r_audit within
    _R_TOL / 2 = _REL_TOL / 10, the rho audit is within the same
    _REL_TOL / 10, and the tail test holds.  A global range starts at the
    arrival radius and grows by 1.5x until the tail carries less than
    _TAIL_TOL of the norm.  A growth keeps every row and adds panels on the
    new stretch only, with a rho rule sized for the new r_max, and bisects
    only those; a kept row's rule resolves rate r_old, at least its own r.

    Each radial segment's rho rule has the phase budget FREQUENCY_BUDGET
    (`frequency_rule`).  Once its panels are final, one more streamed pass
    takes the centre row of every panel, the x = 0 node that G7 and K15
    share, on the rule rebuilt at half that budget.  With panel widths h_p,
    centres c_p and the two sups s and s',
        rho_audit = sum_p h_p c_p^(n-1) |s^2 - s'^2|
                    / (2 sum_p h_p c_p^(n-1) s^2)
    over every segment's panels, with no cancellation between them.  The
    finer rule is the reference, so the audit estimates the error of the
    rule the field used.

    _shared, from `modulated_numerators`, lends a local field the rho rules
    of a wider modulation of the same profile, the panels, certified sups
    and audit sums that one stacked pass per round took for every
    modulation, and this field's index among them.  A mirrored modulation
    -y of a real profile was not in that pass: its entries are those of +y,
    with the maximizing times negated.
    """
    if _shared is not None and not local:
        raise ValueError("shared sups serve local fields only")
    r_first = 1.0 if local else arrival_radius(g, p, 1.0)
    lo, r_max, b = 0.0, r_first, 0
    segments, history, rho_points = [], [], 0
    for growth in range(4):
        if growth:
            lo, r_max = r_max, 1.5 * r_max
        if _shared is None:
            rho_rules = _rho_rules(g, p, r_max)
            segments.append(_adaptive_panels(
                g, p, rho_rules, _start_edges(g, r_first, lo, r_max), segments))
        else:
            rho_rules, seg, b = _shared
            segments.append(seg)
        rho_points = max(rho_points, rho_rules[0][0].size)
        radii, k_w, g_w = (np.concatenate([getattr(s, k).ravel() for s in segments])
                           for k in ("nodes", "k_w", "g_w"))
        sup, arg, bound = (np.concatenate([getattr(s, k)[b].ravel() for s in segments])
                           for k in ("sup", "arg", "bound"))
        norm = _range_norm_from(radii, k_w, sup, p.n)
        history.append((r_max, _range_norm_from(radii, g_w, sup, p.n), norm))
        tail = 0.0 if local else _range_norm_from(
            radii, k_w, sup, p.n, radii >= 0.9 * r_max) / max(norm, 1e-300)
        if tail < _TAIL_TOL:
            break
    # Minkowski: |sup_i - true sup_i| <= bound_i moves the norm by at most
    # the norm of the bounds.
    t_bound = _range_norm_from(radii, k_w, bound, p.n) / max(norm, 1e-300)
    k_sum, e_sum, rho_k, rho_e = (
        sum(float(np.sum(getattr(s, k)[b])) for s in segments)
        for k in ("k_p", "e_p", "rho_k", "rho_e"))
    rho_audit = rho_e / max(2.0 * rho_k, 1e-300)
    return MaximalField(
        p=p, radii=radii, weights=k_w, sup_values=sup, argmax_t=arg,
        t_grid=TimeGrid.chebyshev(max(s.degree for s in segments)),
        r_max=r_max, tail_fraction=tail,
        t_converged=t_bound <= 0.5 * _REL_TOL,
        r_converged=(tail < _TAIL_TOL and e_sum <= _R_TOL * k_sum
                     and rho_audit <= _REL_TOL / 10),
        norm_history=tuple(history), t_bound=t_bound, rho_points=rho_points,
        r_audit=e_sum / max(2.0 * k_sum, 1e-300),
        r_panels=sum(s.nodes.shape[0] for s in segments),
        r_rows_evaluated=sum(s.rows for s in segments),
        r_rows_far=sum(s.rows_far for s in segments), rho_audit=rho_audit)


def _rho_rules(g, p, r_max):
    """The rho rule of a radial segment ending at r_max, and its audit rule
    at half the phase budget.

    The segment's own rule is built last: perfbench's traced GEMM count
    sizes a field from the last rho rule built inside it.
    """
    finer, rule = (frequency_rule(g, p, r_max=r_max + g.modulation_rate,
                                  t_max=1.0, refine=k) for k in (2, 1))
    return rule, finer


@dataclass(frozen=True)
class _Panels:
    """G7/K15 panels of one radial segment, with the certified sups of one or
    more profiles on their rows.

    Row arrays are (P, 15) and per-profile ones (B, P, 15).  k_p and e_p
    hold, per profile and panel, the K15 integral of sup^2 r^(n-1) and its
    gap |K15 - G7|, shape (B, P).  rho_k and rho_e hold, per profile, the
    rho audit's sums over the panels: sum_p h_p c_p^(n-1) s^2 and
    sum_p h_p c_p^(n-1) |s^2 - s'^2|, shape (B,).
    """

    nodes: np.ndarray
    k_w: np.ndarray
    g_w: np.ndarray
    sup: np.ndarray
    arg: np.ndarray
    bound: np.ndarray
    k_p: np.ndarray
    e_p: np.ndarray
    rho_k: np.ndarray
    rho_e: np.ndarray
    degree: int
    rows: int            # rows evaluated, discarded parents included
    rows_far: int        # of those, the rows evaluated as Hankel rows


def _start_edges(g, r_first, lo, hi):
    """Starting panel edges on [lo, hi]: at most min(0.25 / scale, r_first / 8)
    wide, with 1 as an edge, r_first the field's first r_max."""
    return phase_breakpoints(lo, hi, panel_cap=min(0.25 / g.scale, r_first / 8.0),
                             forced=(1.0,))


def _kronrod_layer(g, p, edges, rho_rule, keep=slice(None)):
    """The propagator on the G7/K15 rows of the panels keep of edges, which
    knows those panels, so its far rows are Hankel rows."""
    mid, half = (a[keep] for a in panel_centres(edges))
    x = (mid[:, None] + half[:, None] * KRONROD_NODES).ravel()
    return propagator(g, p, x, rho_rule, (mid, half, KRONROD_NODES))


def _adaptive_panels(g, p, rho_rules, edges, prior=()) -> _Panels:
    """G7/K15 panels on edges, bisected where their gaps ask, with their sups
    on the first of rho_rules and the rho audit against the second.

    The panels' summed gap must meet a budget: _R_TOL times their K15
    integral, plus what the field's target leaves unspent by the segments
    in prior.  While it does not, a round bisects every panel whose gap
    exceeds its width share of the budget, evaluates the children in one
    streamed pass and drops their parents' rows; at most _ROUNDS rounds.
    g may be a sequence of profiles, stacked in every pass; a panel is
    then bisected if any profile's gap is over its share.  `rows` counts
    the rows evaluated on the first rule, and `rows_far` those of them that
    were Hankel rows; the audit adds one row per panel and, with no panel
    rows to share e^{i mid rho}, takes the near path.
    `tau` depends on a rule's powers alone, so every round takes the degree
    of the rule's first pass.
    """
    rho_rule, finer = rho_rules
    slack = np.maximum(sum(_R_TOL * s.k_p.sum(-1) - s.e_p.sum(-1)
                           for s in prior), 0.0)
    layer = _kronrod_layer(g, p, edges, rho_rule)
    degree = chebyshev_degree(layer.tau)
    cert = [np.reshape(a, (-1, edges.size - 1, 15))
            for a in layer.chebyshev_sup(degree)]
    rows, rows_far = layer.x.size, layer.far_rows
    for round_ in range(_ROUNDS + 1):
        nodes, k_w, g_w = (a.reshape(-1, 15) for a in kronrod_rule(edges))
        dens = cert[0] ** 2 * nodes ** (p.n - 1)
        k_p = np.sum(k_w * dens, axis=-1)
        e_p = np.abs(k_p - np.sum(g_w * dens, axis=-1))
        budget = _R_TOL * k_p.sum(-1) + slack
        share = budget[:, None] * (np.diff(edges) / (edges[-1] - edges[0]))
        split = np.any(e_p > share, axis=0)
        if (round_ == _ROUNDS or np.all(e_p.sum(-1) <= budget)
                or not split.any()):
            break
        child = np.repeat(split, 1 + split)
        edges = np.insert(edges, np.flatnonzero(split) + 1,
                          0.5 * (edges[:-1] + edges[1:])[split])
        layer = _kronrod_layer(g, p, edges, rho_rule, child)
        rows += layer.x.size
        rows_far += layer.far_rows
        vals = layer.chebyshev_sup(degree)
        for i, val in enumerate(vals):
            out = np.empty(cert[i].shape[:1] + (child.size, 15))
            out[:, ~child] = cert[i][:, ~split]
            out[:, child] = np.reshape(val, (len(out), -1, 15))
            cert[i] = out
    # The rho audit: each panel's centre row, the x = 0 node of G7 and K15.
    mid = nodes[:, 7]
    layer = propagator(g, p, mid, finer)
    fine = layer.chebyshev_sup(chebyshev_degree(layer.tau))[0]
    fine = np.reshape(fine, (len(k_p), -1))
    mass = np.diff(edges) * mid ** (p.n - 1)
    coarse = cert[0][..., 7] ** 2
    return _Panels(nodes, k_w, g_w, *cert, k_p, e_p, np.sum(mass * coarse, -1),
                   np.sum(mass * np.abs(coarse - fine ** 2), -1), degree, rows,
                   rows_far)


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
    and its adaptive panels, and every bisection round is one streamed
    kernel pass that stacks their bases, as is the rho audit.

    When g is real on that rule, e^{-i y rho} g = conj(e^{i y rho} g), and
    the kernel, the weights and the powers rho^a are real, so
    u_{-y}(r, t) = conj(u_y(r, -t)).  The Chebyshev times are exactly
    symmetric, so the two fields share every sup, bound, K15/G7 sum and
    audit term, and their maximizing times differ in sign.  The pass then
    stacks one base per distinct |y| and expands its panels to every y;
    for a complex g it stacks one per distinct y.  At y = 0 the identity
    reads u(r, -t) = conj u(r, t), which every layer with a real base uses
    inside `radial.RadialKernel.chebyshev_sup` to sample t >= 0 only; a
    stack with any y != 0 is complex and samples every time.
    """
    y_arr = np.atleast_1d(np.asarray(y_grid, dtype=float))
    if y_arr.size == 0:
        raise ValueError("the modulation grid must be nonempty")
    if np.any(np.abs(y_arr) >= 1):
        raise ValueError("modulations must satisfy |y| < 1")
    wide = g.modulate(float(np.max(np.abs(y_arr))))
    rho_rules = _rho_rules(wide, p, 1.0)
    real = not np.iscomplexobj(g(rho_rules[0][0]))
    keys, inv = np.unique(np.abs(y_arr) if real else y_arr, return_inverse=True)
    seg = _adaptive_panels([g.modulate(float(k)) for k in keys], p, rho_rules,
                           _start_edges(g, 1.0, 0.0, 1.0))
    # y = -|y| takes its mirror's panels with the argmax times flipped.
    flip = np.where(y_arr < keys[inv], -1.0, 1.0)[:, None, None]
    seg = replace(seg, arg=seg.arg[inv] * flip, **{
        k: getattr(seg, k)[inv]
        for k in ("sup", "bound", "k_p", "e_p", "rho_k", "rho_e")})
    out = np.empty(y_arr.size)
    fields = []
    for i, gy in enumerate(g.modulate(float(y)) for y in y_arr):
        fld = converged_maximal_field(gy, p, local=True,
                                      _shared=(rho_rules, seg, i))
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
