import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscillax.cutoffs import chi, eta, gamma_weight, psi


def test_plateau_values():
    assert chi(0.5) == 1.0
    assert chi(3.0) == 0.0
    mid = float(chi(1.5))
    assert 0.0 < mid < 1.0
    assert mid + float(psi(1.5)) == pytest.approx(1.0, abs=1e-15)


@given(st.floats(min_value=-50.0, max_value=50.0))
@settings(max_examples=80, deadline=None)
def test_complement_identity(x):
    assert float(chi(x)) + float(psi(x)) == pytest.approx(1.0, abs=1e-14)
    assert 0.0 <= float(chi(x)) <= 1.0
    assert float(chi(x)) == float(chi(-x))


def test_plateau_stays_in_unit_interval_near_edges():
    # Dense grid over both transition bands, including 1.0078125, where the
    # plateau once overshot 1 by about 1e-12.
    x = np.concatenate([np.linspace(0.9, 2.1, 120001), [1.0078125]])
    vals = chi(x)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.all(np.diff(vals[:-1]) <= 0.0)


def test_bump_support():
    assert eta(3.0) == 0.0
    assert eta(0.4) == 0.0
    x = np.linspace(-4, 4, 401)
    vals = eta(x)
    assert np.all(vals >= 0) and np.all(vals <= 1)
    assert np.all(vals[np.abs(x) < 0.5] == 0)
    assert np.all(vals[np.abs(x) > 2.0] == 0)


def _partition_sum(x):
    """sum_{N>1} eta(N x) + sum_{N>=1} eta(x/N) over the dyadic N = 2^k.

    The scales |k| <= 24 cover every term that is nonzero for 1e-3 <= |x| <= 4096.
    """
    scales = 2.0 ** np.arange(-24, 25)
    return eta(np.multiply.outer(np.abs(np.atleast_1d(x)), scales)).sum(axis=-1)


def test_partition_of_unity_spot_values():
    for x in (0.37, 1024.5):
        assert float(_partition_sum(x)[0]) == pytest.approx(1.0, abs=1e-12)


def test_partition_of_unity_random():
    rng = np.random.default_rng(3)
    xs = rng.uniform(1e-3, 4096.0, 1000)
    sums = _partition_sum(xs)
    assert np.abs(sums - 1.0).max() <= 1e-12


def test_gamma_weight_low_frequency_is_one():
    for s in (-1.0, 0.0, 0.7, 2.0):
        assert gamma_weight(s, 0.4) == pytest.approx(1.0, abs=1e-15)


def test_gamma_zero_weight_band():
    xi = np.concatenate([np.linspace(0.01, 1.0, 200),
                         np.exp(np.linspace(0.0, np.log(2.0 ** 14), 2000))])
    g0 = gamma_weight(0.0, xi)
    assert np.all(g0 >= 1.0 - 1e-12)
    assert np.all(g0 <= 2.0 + 1e-12)
    assert np.all(g0[xi >= 1.0] >= 1.0 - 1e-12)


def test_gamma_ratio_band_on_dyadic_points():
    s = 0.3
    xi = 2.0 ** np.arange(0, 13)
    ratios = gamma_weight(s, xi) / (1.0 + xi ** 2) ** s
    assert ratios.max() / ratios.min() < 4.0


@pytest.mark.parametrize("s", [-1.0, -0.5, 0.0, 0.25, 0.5, 1.0])
def test_comparability_band_stable_under_range_doubling(s):
    def band(hi):
        xi = np.concatenate([np.linspace(0.0, 1.0, 257),
                             np.exp(np.linspace(0.0, np.log(hi), 4096))])
        r = gamma_weight(s, xi) / (1.0 + xi ** 2) ** s
        return r.min(), r.max()

    lo1, hi1 = band(2.0 ** 14)
    lo2, hi2 = band(2.0 ** 15)
    assert abs(lo2 - lo1) <= 0.01 * lo1
    assert abs(hi2 - hi1) <= 0.01 * hi1


def test_smooth_step_reuses_cached_rule(monkeypatch):
    x = np.array([1.2, 1.5, 1.8])
    first = chi(x)
    calls = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda deg: calls.append(deg) or leggauss(deg))
    second = chi(x)
    assert calls == []
    assert np.array_equal(first, second)
