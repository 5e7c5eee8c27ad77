"""Bessel functions of the first kind J_lam and their large-argument form.

Values come from scipy.special, with the routine picked by the order:
j0 for lam = 0, j1 for lam = 1, spherical_jn for half-integer lam >= 1/2
(J_{k+1/2}(x) = sqrt(2x/pi) j_k(x)) and jv for every other order.  For
lam = -1/2 and 1/2 at arguments >= 1/2, `bessel_j` returns the leading
asymptotic term `bessel_main_term` itself: Hankel's expansion (DLMF
10.17.3) ends after its first term for these two orders, so the term is
exact and the remainder J - main term is 0.

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

Far from the origin, `hankel_series` serves rows that know their
quadrature panels (`radial.RadialKernel`): with omega = z - lam*pi/2 - pi/4
and a_k(lam) the coefficients of DLMF 10.17.1, Hankel's expansion
(DLMF 10.17.3) reads

    k_lam(z) = sqrt(2/pi) z^(-lam-1/2) Re[e^{i omega} sum_k a_k(lam) (i/z)^k],

which needs e^{i z} and powers of z only.  It is used at z >= `hankel_z0`
(lam), cut at the first term below rounding for the smallest such z.  For
lam >= 0 DLMF 10.17(iii) bounds the remainder of each of its real and
imaginary sums by its first neglected term, given enough kept terms, and
`hankel_series` returns those terms for the caller's error bound; for
half-integer lam the sum ends and the expansion is exact.  At lam = +-1/2
it ends after the k = 0 term, so there the expansion is the closed form
itself and serves every z the closed form does.

Everything is vectorized over the argument; the order is a scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_SAMPLES_PER_OCTAVE = 512
_ROUNDING = np.finfo(float).eps / 2.0
# Least argument of the Hankel rows at every order but +-1/2 (`hankel_z0`).
# The Hankel terms reach rounding from z = 17.5 on for 0 <= lam <= 4, and
# wherever they do, a far row costs about 14 ns per element against
# scipy's 44-50 ns, with the same error (measured on z in [20, 40) to
# [60, 120), lam = 0 and 1); 20 leaves a margin.
HANKEL_Z0 = 20.0


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


def _lam(order: float) -> float:
    """The order as a float; only finite lam >= -1/2 is admitted."""
    lam = float(order)
    if not math.isfinite(lam):
        raise ValueError("order must be finite")
    if lam < -0.5:
        raise ValueError(f"order {lam} < -1/2 is not supported")
    return lam


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


def bessel_j(order: float, rho) -> np.ndarray | float:
    """J_lam(rho) for rho >= 0.

    The scipy routine of the module docstring, except for lam = +-1/2 at
    rho >= 1/2, where the value is `bessel_main_term`: DLMF 10.17.3 ends
    after one term there.  Below 1/2 scipy takes over, since the rounding
    of cos(pi/2) in the term would show against the small sin rho of
    lam = 1/2.  Within 1e-11 * min(1, sqrt(2/(pi rho))) of the 40-digit
    value for lam in {-1/2, 0, 1/2, 1, 3/2, 2, 5/2} and 0 < rho <= 1e4
    (checked against mpmath by the test suite).
    """
    lam = _lam(order)
    rho_arr, scalar = _validated(rho)
    if abs(lam) == 0.5:
        out = np.empty_like(rho_arr)
        big = rho_arr >= 0.5
        out[big] = _main_term(lam, rho_arr[big])
        out[~big] = _scipy_j(lam, rho_arr[~big])
    else:
        out = _scipy_j(lam, rho_arr)
    return float(out[0]) if scalar else out


def bessel_main_term(order: float, rho) -> np.ndarray | float:
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
    out = _main_term(lam, rho_arr)
    return float(out[0]) if scalar else out


def _main_term(lam: float, rho: np.ndarray) -> np.ndarray:
    """`bessel_main_term` on a checked order and array, rho > 0.  At
    lam = -1/2, phi = 0 and sin phi is exactly 0, so the sine is skipped."""
    phi = lam * (0.5 * math.pi) + 0.25 * math.pi
    cos_phi, sin_phi = math.cos(phi), math.sin(phi)
    wave = np.cos(rho) * cos_phi
    if sin_phi != 0.0:
        wave += np.sin(rho) * sin_phi
    return _SQRT_2_OVER_PI / np.sqrt(rho) * wave


def bessel_kernel_reduced(order: float, z) -> np.ndarray:
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


def certify_asymptotic(order: float, rho_min: float,
                       rho_max: float) -> AsymptoticCertificate:
    """Measure sup rho^(3/2) |J_lam - main term| over [rho_min, rho_max].

    The range must be finite, sit strictly above 1 and span at least 8
    dyadic octaves.
    Per-octave suprema are recorded; a growth trend across octaves would
    contradict the O(rho^(-3/2)) remainder and is reported via the
    certificate rather than silently absorbed.  Each octave is sampled at
    _SAMPLES_PER_OCTAVE log-spaced points.
    """
    lam = _lam(order)
    if not (math.isfinite(rho_min) and math.isfinite(rho_max)):
        raise ValueError("certified range must be finite")
    if rho_min <= 1.0:
        raise ValueError("certified range must start above 1")
    # A reversed or negative rho_max fails here, before any logarithm.
    if not rho_max >= rho_min * 2.0 ** (8.0 - 1e-9):
        raise ValueError("need at least 8 dyadic octaves")
    octave_sups = []
    lo = rho_min
    while lo < rho_max * (1 - 1e-12):
        hi = min(lo * 2.0, rho_max)
        grid = np.exp(np.linspace(np.log(lo), np.log(hi), _SAMPLES_PER_OCTAVE,
                                  endpoint=False))
        rem = np.abs(np.asarray(bessel_j(lam, grid)) - np.asarray(bessel_main_term(lam, grid)))
        octave_sups.append(float(np.max(grid ** 1.5 * rem)))
        lo = hi
    return AsymptoticCertificate(lam=lam, rho_min=rho_min, rho_max=rho_max,
                                 c_lambda_empirical=max(octave_sups),
                                 octave_sups=tuple(octave_sups))


def hankel_z0(order: float) -> float:
    """Least argument z0(lam) of Hankel's expansion in `hankel_series`.

    lam = -1/2: 0, since k_{-1/2}(z) = sqrt(2/pi) cos z exactly.  lam = 1/2:
    1, where the single term sqrt(2/pi) sin z / z is exact (`bessel_j`
    switches to it at 1/2) and its amplitude sqrt(2/pi) / z stays at most
    k_{1/2}(0).  Every other order: max(HANKEL_Z0, lam^2), where the terms
    fall from the first and reach rounding.
    """
    lam = _lam(order)
    if lam == -0.5:
        return 0.0
    if lam == 0.5:
        return 1.0
    return max(HANKEL_Z0, lam * lam)


def hankel_series(order: float, z_min: float):
    """(a, tail): the Hankel coefficients that k_lam needs at z >= z_min.

    a holds a_0(lam), ..., a_{K-1}(lam) of DLMF 10.17.1,
    a_k = a_{k-1} (4 lam^2 - (2k - 1)^2) / (8k), a_0 = 1, cut at the first k
    with |a_k| z_min^-k below rounding, or at the first a_k = 0.  For
    lam >= 0, DLMF 10.17(iii) bounds the remainder of the even and of the
    odd sum by its first neglected term once they keep at least
    max(lam/2 - 1/4, 1) and max(lam/2 - 3/4, 1) terms, so K never falls
    below that.  tail = (|a_K|, |a_{K+1}|), so at z >= z_min

        |k_lam(z) - far rows| <= sqrt(2/pi) z^(-lam-1/2) (|a_K| z^-K + |a_{K+1}| z^-K-1),

    which is 0 for half-integer lam: its sum ends at a_K = 0.  z_min must
    be at least `hankel_z0`(lam): at lam = +-1/2 the sum is a_0 alone (and
    z_min may be 0 at lam = -1/2); elsewhere |4 lam^2 - (2k - 1)^2| / (8 k z)
    stays below 1 until the terms are far below rounding.
    """
    lam = _lam(order)
    if not (lam >= 0.0 or lam == -0.5):
        raise ValueError("Hankel rows need lam >= 0 or lam = -1/2")
    if not z_min >= hankel_z0(lam):
        raise ValueError("Hankel rows need z >= hankel_z0(lam)")
    need_even = max(0.5 * lam - 0.25, 1.0)
    need_odd = max(0.5 * lam - 0.75, 1.0)
    a, term = [1.0], 1.0
    while True:
        k = len(a)
        ratio = (4.0 * lam * lam - (2 * k - 1) ** 2) / (8.0 * k)
        nxt = a[-1] * ratio
        if nxt == 0.0:
            break
        term *= abs(ratio) / z_min
        if (term < _ROUNDING and (k + 1) // 2 >= need_even
                and k // 2 >= need_odd):
            break
        if 2 * k - 1 > 2.0 * lam and abs(ratio) >= z_min:
            raise ValueError("the Hankel terms grow before reaching rounding")
        a.append(nxt)
    after = nxt * (4.0 * lam * lam - (2 * k + 1) ** 2) / (8.0 * (k + 1))
    return np.array(a), (abs(nxt), abs(after))
