import math
import warnings

import numpy as np
import pytest
import scipy.special as sc

from spatialboost import _special

TINY = np.finfo(float).tiny
RTOL = 4e-15


def assert_rel(got, want, rtol=RTOL):
    """Relative error <= rtol where ``want`` is a normal double; below that
    (subnormal or zero) the two may differ by at most TINY."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    got, want, rtol = got[ok], want[ok], np.broadcast_to(rtol, ok.shape)[ok]
    normal = np.abs(want) >= TINY
    rel = np.abs(got[normal] - want[normal]) / np.abs(want[normal])
    assert np.all(rel <= rtol[normal]), rel.max()
    assert np.all(np.abs(got[~normal] - want[~normal]) <= TINY)


GRID = np.linspace(-40.0, 40.0, 160_001)


@pytest.mark.parametrize("name", ["ndtr", "expit"])
def test_matches_scipy_on_dense_grid(name):
    assert_rel(getattr(_special, name)(GRID), getattr(sc, name)(GRID))


def test_erfcx_matches_scipy():
    # saturated Polya-Gamma tilts put the argument far below zero, where
    # both overflow to inf (below about -26.63)
    x = np.linspace(-30.0, 30.0, 120_001)
    got, want = _special.erfcx(x), sc.erfcx(x)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    assert np.isinf(want).any()
    fin = np.isfinite(want)
    assert_rel(got[fin], want[fin], rtol=1e-14)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = _special.erfcx(np.array([-1e4, -1e200, -np.inf, 1e200, np.inf]))
    assert np.isinf(far[:3]).all() and far[4] == 0.0
    assert_rel(far[3], sc.erfcx(1e200), rtol=1e-14)


def test_erfc_nonneg_matches_scipy_through_underflow():
    x = GRID[GRID >= 0]
    assert_rel(_special.erfc_nonneg(x), sc.erfc(x))
    assert _special.erfc_nonneg(np.array([27.0, 40.0, np.inf])).tolist() == [0, 0, 0]


def test_chi2_sf_1df_matches_scipy():
    x = np.linspace(0.0, 1600.0, 160_001)
    assert_rel(_special.chi2_sf_1df(x), sc.erfc(np.sqrt(x / 2.0)))
    # scipy's chdtrc goes through the incomplete gamma function, which is
    # itself off by up to 3.2e-14 near x = 2.2 (against 40-digit erfc)
    x = np.linspace(0.0, 100.0, 20_001)
    assert_rel(_special.chi2_sf_1df(x), sc.chdtrc(1, x), rtol=5e-14)


def test_erfc_and_ndtr_match_math_erfc():
    # Cephes takes exp(-x^2) of a rounded x^2, so its relative error grows as
    # x^2 eps in the tail; the stdlib erfc does not
    x = np.linspace(0.0, 27.0, 10_001)
    want = np.array([math.erfc(v) for v in x])
    assert_rel(_special.erfc_nonneg(x), want, rtol=1e-15 * (1.0 + x * x))
    x = np.linspace(-38.0, 38.0, 20_001)
    want = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x])
    assert_rel(_special.ndtr(x), want, rtol=1e-15 * (1.0 + x * x / 2.0))


def test_ascending_and_shuffled_input_agree_bitwise():
    # ascending input takes slices, any other order boolean masks
    x = np.linspace(0.0, 30.0, 5001)
    perm = np.random.default_rng(0).permutation(x.size)
    fast = _special.erfc_nonneg(x)
    masked = _special.erfc_nonneg(x[perm])
    assert np.array_equal(fast[perm], masked)
    t = np.linspace(-30.0, 30.0, 5001)
    assert np.array_equal(_special.erfcx(t)[perm], _special.erfcx(t[perm]))


def test_shapes_nan_and_limits():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _special.expit(np.array([-1000.0, 1000.0])).tolist() == [0.0, 1.0]
    assert _special.ndtr(0.0) == 0.5
    assert _special.erfc_nonneg(np.zeros((2, 3))).shape == (2, 3)
    assert _special.erfcx(np.full((2, 2), -3.0)).shape == (2, 2)
    nan = np.array([np.nan])
    for f in (_special.erfc_nonneg, _special.ndtr, _special.erfcx,
              _special.expit, _special.chi2_sf_1df):
        assert np.isnan(f(nan)).all()
    assert _special.ndtr(np.array([-np.inf, np.inf])).tolist() == [0.0, 1.0]
    assert np.isnan(_special.erfc_nonneg(np.array([-1.0]))).all()
