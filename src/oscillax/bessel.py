"""Bessel functions of the first kind J_lam and their large-argument form.

Values come from scipy.special, with the routine picked by the order:
j0 for lam = 0, j1 for lam = 1, spherical_jn for half-integer lam >= 1/2
(J_{k+1/2}(x) = sqrt(2x/pi) j_k(x)) and jv for every other order.  For
the half-integer orders -1/2 to 5/2, `bessel_j` uses the exact
trigonometric closed forms at arguments >= 1/2, which keeps the remainder
of the leading asymptotic term at rounding level.

The entire kernel k_lam(z) = J_lam(z)/z^lam of `bessel_kernel_reduced`
writes each order into one output array, with no boolean gather/scatter:

- lam = 0: j0(z);
- lam = -1/2: sqrt(2/pi) cos z, exact;
- lam = 1/2: sqrt(2/pi) sin z / z, the closed form of DLMF 10.49.3;
- lam = 1: j1(z) / z;
- other orders: sqrt(2/pi) j_k(z) / z^k for lam = k + 1/2, else jv(lam, z) / z^lam;
- orders other than 0 and -1/2: 2^(-lam)/Gamma(lam+1) wherever z^2 < 1e-16,
  through one masked divide.

The leading asymptotic term sqrt(2/pi) x^(-1/2) cos(w), w = x - lam*pi/2 -
pi/4, approximates J_lam with an O(x^(-3/2)) remainder for every order
lam > -1/2; `certify_asymptotic` measures the best constant empirically
over a dyadic range of arguments and returns it as a certificate that
downstream operator bounds can consume.

Everything is vectorized over the argument; the order is a scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# Closed trigonometric forms, exact for half-integer orders (used for
# arguments >= 0.5; below that they cancel and scipy takes over).
_HALF_INTEGER_FORMS = {
    -0.5: lambda x: np.cos(x),
    0.5: lambda x: np.sin(x),
    1.5: lambda x: np.sin(x) / x - np.cos(x),
    2.5: lambda x: (3.0 / (x * x) - 1.0) * np.sin(x) - (3.0 / x) * np.cos(x),
}


@dataclass(frozen=True)
class BesselOrder:
    """Order lam of J_lam; only lam >= -1/2 is admitted."""

    lam: float

    def __post_init__(self):
        if not np.isfinite(self.lam):
            raise ValueError("order must be finite")
        if self.lam < -0.5:
            raise ValueError(f"order {self.lam} < -1/2 is not supported")


@dataclass(frozen=True)
class AsymptoticCertificate:
    """Empirical bound sup x^(3/2) |J_lam(x) - main term| over a range.

    octave_sups holds the per-octave suprema used to check that the scaled
    remainder shows no growth trend (the remainder really is O(x^(-3/2))).
    """

    lam: float
    rho_min: float
    rho_max: float
    c_lambda_empirical: float
    octave_sups: tuple

    def __post_init__(self):
        if not np.isfinite(self.c_lambda_empirical):
            raise ValueError("certificate constant must be finite")
        if self.rho_min <= 1.0:
            raise ValueError("certified range must stay above 1")


def _lam(order: BesselOrder | float) -> float:
    return order.lam if isinstance(order, BesselOrder) else BesselOrder(float(order)).lam


def _validated(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if arr.size:
        # Two reductions and no mask: a NaN anywhere makes both NaN.
        lo, hi = arr.min(), arr.max()
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("argument must be finite")
        if lo < 0.0:
            raise ValueError("argument must be nonnegative")
    return arr, scalar


def _scipy_j(lam: float, x: np.ndarray) -> np.ndarray:
    if lam == 0.0:
        return special.j0(x)
    if lam == 1.0:
        return special.j1(x)
    if lam >= 0.5 and (lam - 0.5).is_integer():
        return _SQRT_2_OVER_PI * np.sqrt(x) * special.spherical_jn(int(lam - 0.5), x)
    return special.jv(lam, x)


def bessel_j(order: BesselOrder | float, rho) -> np.ndarray | float:
    """J_lam(rho) for rho >= 0.

    Within 1e-11 * min(1, sqrt(2/(pi rho))) of the 40-digit value for
    lam in {0, 1/2, 1, 3/2, 2} and 0 <= rho <= 1e4 (checked against mpmath
    by the test suite).
    """
    lam = _lam(order)
    rho_arr, scalar = _validated(rho)
    form = _HALF_INTEGER_FORMS.get(lam)
    if form is None:
        out = _scipy_j(lam, rho_arr)
    else:
        out = np.empty_like(rho_arr)
        big = rho_arr >= 0.5
        xb = rho_arr[big]
        out[big] = _SQRT_2_OVER_PI / np.sqrt(xb) * form(xb)
        out[~big] = _scipy_j(lam, rho_arr[~big])
    return float(out[0]) if scalar else out


def bessel_main_term(order: BesselOrder | float, rho) -> np.ndarray | float:
    """Leading term sqrt(2/pi) rho^(-1/2) cos(rho - lam*pi/2 - pi/4).

    The shifted cosine is expanded by angle addition so that no large
    argument ever enters a subtraction; otherwise the rounding of rho - phi
    grows like eps * rho and dominates the O(rho^(-3/2)) remainder this
    term is meant to expose.
    """
    lam = _lam(order)
    rho_arr = np.asarray(rho, dtype=float)
    scalar = rho_arr.ndim == 0
    rho_arr = np.atleast_1d(rho_arr)
    if np.any(rho_arr <= 0):
        raise ValueError("main term requires rho > 0")
    phi = lam * (0.5 * math.pi) + 0.25 * math.pi
    cos_phi, sin_phi = math.cos(phi), math.sin(phi)
    out = _SQRT_2_OVER_PI / np.sqrt(rho_arr) * (
        np.cos(rho_arr) * cos_phi + np.sin(rho_arr) * sin_phi)
    return float(out[0]) if scalar else out


def bessel_kernel_reduced(order: BesselOrder | float, z) -> np.ndarray:
    """The entire kernel k_lam(z) = J_lam(z) / z^lam, finite at z = 0.

    k_lam(0) = 2^(-lam)/Gamma(lam+1); this is the kernel through which every
    radial reduction in the package is expressed, since
    r^(-lam) J_lam(r*rho) = rho^lam k_lam(r*rho) removes the r = 0 singularity.
    The value at 0 is used wherever z^2 < 1e-16, where the quotient
    underflows and the next term of the series is below rounding.

    Each order writes into one output array, which is returned; z itself is
    never written.  The routine for each order is in the module docstring.
    """
    lam = _lam(order)
    z_arr, scalar = _validated(z)
    if lam == 0.0:
        out = special.j0(z_arr)
    elif lam == -0.5:
        out = np.cos(z_arr)
        out *= _SQRT_2_OVER_PI
    else:
        # fl(z*z) >= 1e-16 holds exactly when z >= 1e-8, so the mask needs
        # no squared copy of z.
        live = z_arr >= 1e-8
        denom = z_arr
        if lam == 0.5:
            out = np.sin(z_arr)
        elif lam == 1.0:
            out = special.j1(z_arr)
        elif lam >= 0.5 and (lam - 0.5).is_integer():
            # J_{k+1/2}(z) / z^(k+1/2) = sqrt(2/pi) j_k(z) / z^k.
            k = int(lam - 0.5)
            out = special.spherical_jn(k, z_arr)
            out *= _SQRT_2_OVER_PI
            denom = z_arr ** k
        else:
            out = special.jv(lam, z_arr)
            denom = np.power(z_arr, lam, out=np.ones_like(z_arr), where=live)
        np.divide(out, denom, out=out, where=live)
        if lam == 0.5:
            out *= _SQRT_2_OVER_PI
        np.copyto(out, 2.0 ** (-lam) / math.gamma(lam + 1.0), where=~live)
    return float(out[0]) if scalar else out


def certify_asymptotic(order: BesselOrder | float, rho_min: float, rho_max: float,
                       samples_per_octave: int = 512) -> AsymptoticCertificate:
    """Measure sup rho^(3/2) |J_lam - main term| over [rho_min, rho_max].

    The range must sit strictly above 1 and span at least 8 dyadic octaves.
    Per-octave suprema are recorded; a growth trend across octaves would
    contradict the O(rho^(-3/2)) remainder and is reported via the
    certificate rather than silently absorbed.
    """
    lam = _lam(order)
    if rho_min <= 1.0:
        raise ValueError("certified range must start above 1")
    n_octaves = math.log2(rho_max / rho_min)
    if n_octaves < 8.0 - 1e-9:
        raise ValueError("need at least 8 dyadic octaves")
    octave_sups = []
    c_global = 0.0
    k = 0
    lo = rho_min
    while lo < rho_max * (1 - 1e-12):
        hi = min(lo * 2.0, rho_max)
        grid = np.exp(np.linspace(np.log(lo), np.log(hi), samples_per_octave,
                                  endpoint=False))
        rem = np.abs(np.asarray(bessel_j(lam, grid)) - np.asarray(bessel_main_term(lam, grid)))
        scaled = grid ** 1.5 * rem
        sup = float(np.max(scaled))
        octave_sups.append(sup)
        c_global = max(c_global, sup)
        lo = hi
        k += 1
    return AsymptoticCertificate(lam=lam, rho_min=rho_min, rho_max=rho_max,
                                 c_lambda_empirical=c_global,
                                 octave_sups=tuple(octave_sups))
