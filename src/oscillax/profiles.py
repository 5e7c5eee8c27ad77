"""Radial profiles used as test functions, on either side of the transform.

A Profile is a scalar function of the radius rho >= 0 together with the
metadata the quadrature engines need: exact support (when compact), a
characteristic smoothness scale, and the rate of any complex modulation
e^{i y rho} riding on it.  The same class serves spatial profiles f0(r) and
frequency profiles g(rho) = fhat restricted to |xi| = rho.

Named families:

* gaussian(sigma):        exp(-(sigma*rho)^2 / 2)
* bump(center, width):    exp(-1/(1-u^2)) with u = (rho-center)/width
* annular(N):             eta(rho/N), a full dyadic annulus at scale N
* shell(N, width):        bump of the given width centred at rho = N
* sampled(grid, values):  cubic spline through given samples, 0 outside
* bandlimited(seed):      random smooth profile supported in [0, 2]
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

import numpy as np

from .cutoffs import chi, eta, mollifier

_BAND_TERMS = 7
_TAIL_TOL = 1e-12      # tail share of rho^(n-1) |g| beyond a truncation


class NumericalFailure(ValueError):
    """A computation that could not reach its accuracy target; not bad input."""


@dataclass(frozen=True, eq=False)
class Profile:
    fn: Callable
    support: Optional[Tuple[float, float]]  # None means rapidly decaying tail
    scale: float                            # smallest feature size
    modulation_rate: float = 0.0

    def __call__(self, rho):
        rho = np.asarray(rho, dtype=float)
        return self.fn(rho)

    def modulate(self, y: float) -> "Profile":
        """e^{i y rho} times this profile; preserves |g| pointwise."""
        y = float(y)
        base = self.fn
        return replace(
            self,
            fn=(lambda rho, _b=base, _y=y:
                np.exp(1j * _y * np.asarray(rho, dtype=float)) * _b(np.asarray(rho, dtype=float))),
            modulation_rate=self.modulation_rate + abs(y),
        )

    def scaled(self, alpha: complex) -> "Profile":
        base = self.fn
        return replace(self, fn=lambda rho, _b=base, _a=alpha: _a * _b(rho))

    def plus(self, other: "Profile") -> "Profile":
        lo = 0.0
        hi = None
        if self.support is not None and other.support is not None:
            lo = min(self.support[0], other.support[0])
            hi = max(self.support[1], other.support[1])
        f1, f2 = self.fn, other.fn
        return Profile(fn=lambda rho: f1(rho) + f2(rho),
                       support=(lo, hi) if hi is not None else None,
                       scale=min(self.scale, other.scale),
                       modulation_rate=max(self.modulation_rate, other.modulation_rate))

    def truncation_radius(self, n: int) -> float:
        """Radius P with integral of rho^(n-1) |g| beyond P below _TAIL_TOL of
        the total."""
        if self.support is not None:
            return self.support[1]
        # Rapidly decaying profile: walk a geometric grid of candidate cuts.
        hi = self.scale
        total = None
        for _ in range(60):
            hi *= 1.6
            grid = np.linspace(0.0, hi, 4097)
            w = np.abs(self(grid)) * grid ** (n - 1)
            total = np.trapezoid(w, grid)
            tail = np.trapezoid(w[grid >= hi * 0.75], grid[grid >= hi * 0.75])
            if total > 0 and tail < _TAIL_TOL * total:
                return hi * 0.75
        raise NumericalFailure("profile does not appear to decay")

    def lower_support(self) -> float:
        return 0.0 if self.support is None else self.support[0]


def gaussian(sigma: float = 1.0) -> Profile:
    sigma = float(sigma)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return Profile(fn=lambda rho: np.exp(-0.5 * (sigma * rho) ** 2),
                   support=None, scale=1.0 / sigma)


def bump(center: float = 0.0, width: float = 1.0) -> Profile:
    center, width = float(center), float(width)
    if width <= 0 or center < 0:
        raise ValueError("need width > 0 and center >= 0")
    lo = max(0.0, center - width)
    return Profile(fn=lambda rho: mollifier((rho - center) / width),
                   support=(lo, center + width), scale=width / 2.0)


def annular(N: float) -> Profile:
    N = float(N)
    if N <= 0:
        raise ValueError("scale must be positive")
    return Profile(fn=lambda rho: eta(rho / N),
                   support=(N / 2.0, 2.0 * N), scale=N / 4.0)


def shell(N: float, width: float) -> Profile:
    """Thin smooth shell at radius N; the sharpness probe family."""
    N, width = float(N), float(width)
    if N <= 0 or width <= 0 or width > N:
        raise ValueError("need 0 < width <= N")
    return Profile(fn=lambda rho: mollifier((rho - N) / width),
                   support=(N - width, N + width), scale=width / 2.0)


def sampled(grid, values) -> Profile:
    # Imported here: scipy.interpolate pulls in scipy.optimize and
    # scipy.linalg, which the rest of the package never loads.
    from scipy.interpolate import CubicSpline

    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values)
    if grid.ndim != 1 or grid.size < 4:
        raise ValueError("need at least 4 samples")
    if np.any(np.diff(grid) <= 0) or grid[0] <= 0:
        raise ValueError("sample grid must be strictly increasing and positive")
    spline = CubicSpline(grid, values, extrapolate=False)

    def f(rho):
        out = spline(rho)
        return np.where(np.isnan(out), 0.0, out)

    return Profile(fn=f, support=(float(grid[0]), float(grid[-1])),
                   scale=float(np.min(np.diff(grid))) * 2.0)


def bandlimited(seed: int) -> Profile:
    """Random smooth profile supported in [0, 2].

    A random trigonometric polynomial of _BAND_TERMS terms in u = rho - 1,
    tapered by the plateau cutoff chi(rho); used for uniform-boundedness
    experiments over compactly supported data.
    """
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(_BAND_TERMS) / (1.0 + np.arange(_BAND_TERMS)) ** 1.5

    def f(rho):
        rho = np.asarray(rho, dtype=float)
        u = rho - 1.0
        poly = np.zeros_like(rho)
        for k, c in enumerate(coeff):
            poly += c * np.cos(k * math.pi * u / 2.0)
        return chi(rho) * poly

    return Profile(fn=f, support=(0.0, 2.0), scale=1.0 / _BAND_TERMS)

