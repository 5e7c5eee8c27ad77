import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from oscillax.bessel import (HANKEL_Z0, bessel_j, bessel_kernel_reduced,
                             bessel_main_term, certify_asymptotic,
                             hankel_series)

# Independent series oracle for J_1: sum_{k<=40} (-1)^k (x/2)^(2k+1)/(k!(k+1)!)
def j1_series_oracle(x, terms=41):
    total = 0.0
    for k in range(terms):
        total += (-1) ** k * (x / 2.0) ** (2 * k + 1) / (
            math.factorial(k) * math.factorial(k + 1))
    return total


J1_AT_1 = j1_series_oracle(1.0)  # 0.44005058574493355, tail < 1e-90


def test_j0_at_zero():
    assert bessel_j(0.0, 0.0) == 1.0


def test_j_half_at_pi():
    assert abs(bessel_j(0.5, math.pi)) < 1e-15


def test_j1_at_1_vs_series_oracle():
    assert bessel_j(1.0, 1.0) == pytest.approx(J1_AT_1, rel=1e-12)
    assert J1_AT_1 == pytest.approx(0.44005058574493355, abs=1e-15)


@given(st.floats(min_value=0.1, max_value=1e4))
@settings(max_examples=60, deadline=None)
def test_half_integer_closed_form(rho):
    exact = math.sqrt(2.0 / (math.pi * rho)) * math.sin(rho)
    assert abs(bessel_j(0.5, rho) - exact) <= 1e-12


@given(st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=40, deadline=None)
def test_main_term_half_integer_is_sine(rho):
    exact = math.sqrt(2.0 / (math.pi * rho)) * math.sin(rho)
    assert bessel_main_term(0.5, rho) == pytest.approx(exact, rel=1e-13, abs=1e-15)


def test_main_term_phase_cancels_at_quarter_pi():
    rho = math.pi / 4.0
    expected = math.sqrt(2.0 / math.pi) / math.sqrt(rho)  # cos(0) = 1
    assert bessel_main_term(0.0, rho) == pytest.approx(expected, rel=1e-14)


def test_main_term_error_bounded_by_certificate():
    cert = certify_asymptotic(1.5, 1.05, 2.0 ** 12)
    rho = 10.0
    gap = abs(bessel_j(1.5, rho) - bessel_main_term(1.5, rho))
    assert gap <= cert.c_lambda_empirical * rho ** -1.5


@pytest.mark.parametrize("lam", [0.0, 1.0, 1.5, 2.0])
def test_scaled_remainder_bounded(lam):
    rho = np.exp(np.linspace(np.log(2.0), np.log(2.0 ** 12), 4000))
    scaled = rho ** 1.5 * np.abs(np.asarray(bessel_j(lam, rho))
                                 - np.asarray(bessel_main_term(lam, rho)))
    assert np.all(np.isfinite(scaled))
    assert scaled.max() < 10.0


def test_certificate_half_integer_is_zero():
    cert = certify_asymptotic(0.5, 2.0, 2.0 ** 12)
    assert cert.c_lambda_empirical <= 1e-12


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_certificate_finite_no_growth(lam):
    cert = certify_asymptotic(lam, 2.0, 2.0 ** 12)
    sups = np.array(cert.octave_sups)
    assert np.isfinite(cert.c_lambda_empirical)
    # no growth trend: the last octave sits at (not above) the global sup
    assert sups[-1] <= cert.c_lambda_empirical + 1e-12
    assert sups[-1] == pytest.approx(sups[-2], rel=1e-3)


def test_certify_rejects_low_range():
    with pytest.raises(ValueError):
        certify_asymptotic(0.0, 0.9, 2.0 ** 12)


def test_certify_rejects_narrow_range():
    with pytest.raises(ValueError):
        certify_asymptotic(0.0, 2.0, 2.0 ** 6)


def test_order_below_minus_half_rejected():
    with pytest.raises(ValueError):
        bessel_j(-0.6, 1.0)
    with pytest.raises(ValueError, match="finite"):
        bessel_j(np.nan, 1.0)
    with pytest.raises(ValueError):
        bessel_j(-0.75, 1.0)


def test_nonfinite_argument_rejected():
    with pytest.raises(ValueError):
        bessel_j(0.0, np.nan)
    with pytest.raises(ValueError):
        bessel_j(0.0, -1.0)


@pytest.mark.parametrize("bad, message", [(np.nan, "finite"), (np.inf, "finite"),
                                          (-np.inf, "finite"), (-1e-300, "nonnegative")])
@pytest.mark.parametrize("at", [(0, 0), (1, 2), (3, 4)])
def test_kernel_rejects_bad_entry_anywhere(bad, message, at):
    z = np.linspace(0.0, 5.0, 20).reshape(4, 5)
    z[at] = bad
    with pytest.raises(ValueError, match=message):
        bessel_kernel_reduced(1.0, z)


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
def test_against_scipy_envelope_relative(lam):
    rng = np.random.default_rng(42)
    rho = np.concatenate([rng.uniform(0.0, 30.0, 300),
                          np.exp(rng.uniform(np.log(30.0), np.log(1e4), 400))])
    ours = np.asarray(bessel_j(lam, rho))
    ref = jv(lam, rho)
    envelope = np.minimum(np.sqrt(2.0 / np.pi) / np.sqrt(np.maximum(rho, 1e-9)), 1.0)
    assert np.all(np.abs(ours - ref) <= 1e-10 * np.maximum(np.abs(ref), envelope))


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 1.5])
def test_reduced_kernel_matches_quotient(lam):
    z = np.linspace(0.0, 200.0, 5000)
    k = np.asarray(bessel_kernel_reduced(lam, z))
    assert k[0] == pytest.approx(2.0 ** -lam / math.gamma(lam + 1.0), rel=1e-14)
    ref = jv(lam, z[1:]) / z[1:] ** lam
    assert np.abs(k[1:] - ref).max() < 1e-11


def _oracle_points():
    rng = np.random.default_rng(7)
    return np.concatenate([[0.0], rng.uniform(0.0, 30.0, 100),
                           np.exp(rng.uniform(np.log(30.0), np.log(1e4), 200))])


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
def test_against_mpmath_oracle(lam):
    # 40-digit reference, independent of scipy; errors are measured against
    # the envelope min(1, sqrt(2/(pi z))) of J_lam (divided by z^lam for k_lam).
    z = _oracle_points()
    with mpmath.workdps(40):
        j_ref = np.array([float(mpmath.besselj(lam, mpmath.mpf(x))) for x in z])
        k_ref = np.array([float(mpmath.besselj(lam, mpmath.mpf(x)) / mpmath.mpf(x) ** lam)
                          if x > 0 else float(mpmath.mpf(2) ** -lam / mpmath.gamma(lam + 1))
                          for x in z])
    envelope = np.minimum(1.0, np.sqrt(2.0 / (np.pi * np.maximum(z, 1e-300))))
    assert np.all(np.abs(np.asarray(bessel_j(lam, z)) - j_ref) <= 1e-11 * envelope)
    k_envelope = envelope / np.where(z > 0.0, z, 1.0) ** lam
    k = np.asarray(bessel_kernel_reduced(lam, z))
    assert np.all(np.abs(k - k_ref) <= 1e-11 * k_envelope)


def test_minus_half_kernel_against_mpmath():
    # k_{-1/2}(z) = z^(1/2) J_{-1/2}(z) = sqrt(2/pi) cos(z).  J_{-1/2} itself
    # is infinite at 0, so it is checked on z > 0 only, against its
    # envelope sqrt(2/(pi z)).
    z = _oracle_points()
    pos = z[z > 0.0]
    with mpmath.workdps(40):
        j_ref = np.array([float(mpmath.besselj(-0.5, mpmath.mpf(x))) for x in pos])
        k_ref = np.array([float(mpmath.besselj(-0.5, mpmath.mpf(x)) * mpmath.sqrt(x))
                          if x > 0 else float(mpmath.sqrt(2 / mpmath.pi))
                          for x in z])
    k = np.asarray(bessel_kernel_reduced(-0.5, z))
    assert np.all(np.abs(k - k_ref) <= 1e-15)
    j = np.asarray(bessel_j(-0.5, pos))
    assert np.all(np.abs(j - j_ref) <= 1e-15 * np.sqrt(2.0 / (np.pi * pos)))


@pytest.mark.parametrize("lam", [-0.5, 0.5])
def test_half_orders_are_their_main_term(lam):
    # Hankel's expansion of J_{+-1/2} ends after its first term (DLMF 10.17.3).
    x = np.exp(np.linspace(np.log(0.5), np.log(4096.0), 5000))
    np.testing.assert_array_equal(bessel_j(lam, x), bessel_main_term(lam, x))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam", [-0.5, 0.0, 0.5, 1.0, 1.5, 2.0])
def test_kernel_small_arguments_against_mpmath(lam):
    # Both sides of the switch to k_lam(0) at z^2 < 1e-16, and z = 0 itself,
    # where no divide may warn.  |k_lam| <= k_lam(0) for lam >= -1/2, and it
    # stays near k_lam(0) for z <= 1/2, so the error is scaled by k_lam(0).
    z = np.array([0.0, 1e-12, 1e-9, 9.99e-9, 1.001e-8, 1e-6, 1e-3, 0.5])
    given_z = z.copy()
    with mpmath.workdps(40):
        k0 = mpmath.mpf(2) ** -lam / mpmath.gamma(lam + 1)
        k_ref = np.array([float(mpmath.besselj(lam, mpmath.mpf(x)) / mpmath.mpf(x) ** lam)
                          if x > 0 else float(k0) for x in z])
    k = bessel_kernel_reduced(lam, z)
    np.testing.assert_array_equal(z, given_z)
    assert np.all(np.abs(k - k_ref) <= 1e-11 * float(k0))


@pytest.mark.parametrize("rho_min, rho_max", [
    (2.0, math.nan), (2.0, math.inf), (2.0, -5.0), (math.nan, 4096.0),
])
def test_certify_rejects_non_finite_or_reversed_range(rho_min, rho_max):
    with pytest.raises(ValueError, match="finite|8 dyadic octaves"):
        certify_asymptotic(0.0, rho_min, rho_max)


@pytest.mark.parametrize("lam", [0.0, 1.0, 2.0])
@pytest.mark.parametrize("z", [HANKEL_Z0, 57.0, 1e3])
def test_hankel_tail_bounds_the_remainder(lam, z):
    # H(z) = sqrt(pi z / 2) e^{-i omega} H^(1)_lam(z) = sum_k a_k (i/z)^k; the
    # kept terms miss it by at most |a_K| z^-K + |a_{K+1}| z^-K-1 (DLMF
    # 10.17(iii), one bound for each of its real and imaginary parts).
    a, (t0, t1) = hankel_series(lam, z)
    k = a.size
    with mpmath.workdps(40):
        zm = mpmath.mpf(z)
        omega = zm - lam * mpmath.pi / 2 - mpmath.pi / 4
        exact = (mpmath.sqrt(mpmath.pi * zm / 2) * mpmath.exp(-1j * omega)
                 * mpmath.hankel1(lam, zm))
        kept = mpmath.fsum(mpmath.mpf(c) * (1j / zm) ** i for i, c in enumerate(a))
        miss = exact - kept
        bound = mpmath.mpf(t0) / zm ** k + mpmath.mpf(t1) / zm ** (k + 1)
    # The doubles a_k round by a few ulps: at most 4 k eps a_1 / z in all.
    slack = 4 * k * np.finfo(float).eps * abs(a[1] if k > 1 else 0.0) / z
    assert abs(float(mpmath.re(miss))) <= float(bound) + slack
    assert abs(float(mpmath.im(miss))) <= float(bound) + slack
    assert 0.0 < float(bound) < np.finfo(float).eps


@pytest.mark.parametrize("lam", [-0.5, 0.5, 1.5, 2.5])
def test_hankel_series_ends_for_half_integer_orders(lam):
    a, tail = hankel_series(lam, HANKEL_Z0)
    assert a.size == max(1, int(lam + 0.5)) and tail == (0.0, 0.0)


def test_hankel_series_rejects_arguments_below_its_range():
    with pytest.raises(ValueError):
        hankel_series(0.0, HANKEL_Z0 / 2)
    with pytest.raises(ValueError):
        hankel_series(6.0, 30.0)        # below lam^2
    with pytest.raises(ValueError):
        hankel_series(-0.25, 100.0)     # DLMF's bound needs lam >= 0
