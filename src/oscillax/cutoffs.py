"""Smooth cutoff family, the dyadic bump eta, and the dyadic Sobolev weight.

chi is an even C-infinity plateau function with

    chi = 1 on [-1, 1],   chi = 0 outside [-2, 2],   0 <= chi <= 1,

built by integrating the standard compactly supported mollifier
b(u) = exp(-1/(1-u^2)).  psi = 1 - chi.

eta(x) = chi(x) - chi(2x) is an even bump supported in 1/2 <= |x| <= 2 whose
dyadic dilates telescope to a smooth partition of unity away from 0:

    sum_{N>1} eta(N x) + sum_{N>=1} eta(x/N) = 1,   x != 0,

with N running over the dyadic integers.  The weight

    gamma_{2s}(x) = chi(x) + sum_{N>=1} N^{2s} eta(x/N)

is two-sided comparable to (1 + x^2)^s; the comparability band is measured
empirically by the test suite rather than asserted with explicit constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .quadrature import _gl_reference


def mollifier(u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ui * ui))
    return out


@lru_cache(maxsize=1)
def _mollifier_mass() -> float:
    # One fixed high-order rule; the integrand is smooth and flat at +-1.
    x, w = _gl_reference(200)
    return float(np.sum(w * mollifier(x)))


def _smooth_step(x: np.ndarray) -> np.ndarray:
    """Integral of the unit-mass mollifier from -1 to x: 0 below -1, 1 above 1."""
    x = np.asarray(x, dtype=float)
    out = np.where(x <= -1.0, 0.0, np.where(x >= 1.0, 1.0, np.nan))
    mid = (x > -1.0) & (x < 1.0)
    if np.any(mid):
        xm = x[mid]
        # b is even, so the mass right of x equals the mass left of -x.  Only
        # the short tail [-1, -|x|] is integrated: the step then stays inside
        # [0, 1] and step(x) + step(-x) = 1 holds exactly, which a rule over
        # the whole of [-1, x] divided by the mass does not give.
        t = -np.abs(xm)
        nodes, w = _gl_reference(64)
        # Map the 64 reference nodes onto each [-1, t] individually.
        half = 0.5 * (t + 1.0)
        u = -1.0 + half[None, :] * (nodes[:, None] + 1.0)
        tail = np.sum(w[:, None] * mollifier(u), axis=0) * half / _mollifier_mass()
        out[mid] = np.where(xm > 0.0, 1.0 - tail, tail)
    return out


def chi(x) -> np.ndarray:
    """Even smooth plateau: 1 on |x| <= 1, 0 on |x| >= 2."""
    x = np.abs(np.asarray(x, dtype=float))
    return _smooth_step(3.0 - 2.0 * x)


def psi(x) -> np.ndarray:
    return 1.0 - chi(x)


@dataclass(frozen=True, eq=False)
class CutoffFamily:
    chi: Callable = field(default=chi)
    psi: Callable = field(default=psi)


def make_cutoff() -> CutoffFamily:
    """The fixed deterministic cutoff family used throughout the package."""
    return CutoffFamily()


def eta(x) -> np.ndarray:
    """Even bump supported in [1/2, 2] on the positive axis: chi(x) - chi(2x)."""
    x = np.asarray(x, dtype=float)
    return chi(x) - chi(2.0 * x)


def gamma_weight(s: float, xi) -> np.ndarray | float:
    """gamma_{2s}(xi) = chi(xi) + sum over dyadic N >= 1 of N^{2s} eta(xi/N).

    Only the finitely many N with xi/N in [1/2, 2] contribute; everything
    else vanishes on the support of eta.
    """
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    if not np.all(np.isfinite(xi_arr)):
        raise ValueError("xi must be finite")
    ax = np.abs(xi_arr)
    out = np.asarray(chi(ax), dtype=float).copy()
    pos = ax > 0
    if np.any(pos):
        a = ax[pos]
        # N = 2^k contributes iff k in [log2(|xi|) - 1, log2(|xi|) + 1], k >= 0.
        k_min = max(0, int(np.floor(np.log2(np.min(a))) - 1))
        k_max = max(0, int(np.ceil(np.log2(np.max(a))) + 1))
        acc = np.zeros_like(a)
        for k in range(k_min, k_max + 1):
            N = 2.0 ** k
            acc += N ** (2.0 * s) * eta(a / N)
        out[pos] += acc
    if np.isscalar(xi) or np.ndim(xi) == 0:
        return float(out[0])
    return out

