import math
import os
import subprocess
import sys

import numpy as np
import pytest

import spatialboost
from spatialboost.errors import ConfigurationError
from spatialboost.inference import (
    SelectionReport,
    bfdr,
    centroid,
    embfdr_curve,
    threshold,
    xi1_bound,
)
from spatialboost.pipeline import DEFAULT_GAMMA_GRID


def test_gain_config_threshold():
    assert threshold(1.0) == 0.5
    assert threshold(3.0) == pytest.approx(0.25)
    with pytest.raises(ConfigurationError):
        threshold(0.0)


def test_centroid_median_rule():
    assert centroid(np.array([0.9, 0.1]), 1.0).tolist() == [1, 0]


def test_centroid_boundary_included():
    assert centroid(np.array([0.5]), 1.0).tolist() == [1]


def test_centroid_rejects_bad_probabilities():
    with pytest.raises(ConfigurationError):
        centroid(np.array([1.2]), 1.0)
    with pytest.raises(ConfigurationError):
        centroid(np.array([-0.1]), 1.0)


def test_bfdr_values():
    assert bfdr(np.array([1.0, 1.0]), np.array([1, 1])) == 0.0
    assert bfdr(np.array([0.9, 0.6]), np.array([1, 1])) == pytest.approx(0.25)
    assert bfdr(np.array([0.8, 0.2]), np.array([1, 0])) == pytest.approx(0.2)
    assert bfdr(np.array([0.8, 0.2]), np.array([0, 0])) is None


def test_embfdr_curve_values_and_monotonicity(rng):
    points = embfdr_curve(np.array([1.0, 1.0, 1.0]), DEFAULT_GAMMA_GRID)
    assert all(p.embfdr == 0.0 for p in points)

    points = embfdr_curve(np.array([0.95, 0.05]), [1.0])
    assert points[0].retained == 1
    assert points[0].embfdr == pytest.approx(0.05)

    pi = rng.uniform(0, 1, 30)
    retained = [p.retained for p in embfdr_curve(pi, DEFAULT_GAMMA_GRID)]
    assert np.all(np.diff(retained) >= 0)


def test_embfdr_bounded_by_selection_threshold(rng):
    # every selected SNP has 1 - <theta> <= gamma/(1+gamma)
    pi = rng.uniform(0, 1, 50)
    for g in (0.5, 1.0, 4.0):
        point = embfdr_curve(pi, [g])[0]
        if point.embfdr is not None:
            assert point.embfdr <= g / (1.0 + g) + 1e-12


def test_xi1_bound_worked_example():
    assert xi1_bound(16.0, 1.0, 4.0, xi0=0.0) == pytest.approx(-6.11, abs=0.01)
    xi0 = math.log(1e-4 / (1 - 1e-4))
    bound = xi1_bound(16.0, 1.0, 4.0, xi0=xi0)
    assert bound >= 0  # the xi0 constraint
    assert bound == pytest.approx(3.10, abs=0.01)


def test_xi1_bound_boundary_is_zero():
    kappa, s = 16.0, 4.0
    xi0 = 0.5 * math.log(kappa) - 0.5 * s * s * (1.0 - 1.0 / kappa)
    bound = xi1_bound(kappa, 1.0, s, xi0=xi0)
    assert bound == pytest.approx(0.0, abs=1e-12)
    assert bound >= 0


def test_xi1_bound_validation():
    with pytest.raises(ConfigurationError):
        xi1_bound(1.0, 1.0, 4.0)
    with pytest.raises(ConfigurationError):
        xi1_bound(16.0, 0.0, 4.0)


def test_stringent_variant_uses_kappa_s_squared():
    # kappa = s^2 minimizes the bound over kappa
    stringent = xi1_bound(16.0, 1.0, 4.0, xi0=-9.21)
    for kappa in (2.0, 8.0, 15.9, 16.1, 32.0, 1e4):
        assert stringent < xi1_bound(kappa, 1.0, 4.0, xi0=-9.21)


def test_band_half_width_zeroes_the_xi1_bound():
    kappa, xi0, xi1, gamma = 100.0, -4.0, 2.0, 1.0
    for b, s2_want in ((0.0, 12.73), (1.0, 8.69)):
        # s_j^2 = 2k/(k-1) (log(k)/2 - xi0 - xi1 b_j - log(gamma))
        s2 = 2 * kappa / (kappa - 1) * (
            0.5 * math.log(kappa) - xi0 - xi1 * b - math.log(gamma)
        )
        assert s2 == pytest.approx(s2_want, abs=0.01)
        # at s = s_j the bound equals xi1 b_j
        bound = xi1_bound(kappa, gamma, math.sqrt(s2), xi0=xi0)
        assert bound == pytest.approx(xi1 * b, abs=1e-12)


def test_selection_report_build_and_tsv():
    rep = SelectionReport.build(["a", "b", "c"], np.array([0.9, 0.4, 0.6]), 1.0)
    assert rep.selected.tolist() == [1, 0, 1]
    assert rep.point.embfdr == pytest.approx((0.1 + 0.4) / 2.0)
    assert rep.point.retained == 2
    text = rep.to_tsv()
    assert "a\t0.9\t1" in text
    assert text.startswith("# gamma=1")


def test_selection_report_empty_selection_sentinel():
    rep = SelectionReport.build(["a"], np.array([0.1]), 1.0)
    assert rep.point.embfdr is None
    assert rep.point.tsv() == "1\t0.5\tNA\t0"
    assert "bfdr=NA" in rep.to_tsv()


def test_import_loads_no_model_code():
    # selection reads probabilities alone, so neither spatialboost.em nor
    # spatialboost.linalg loads: the kappa scan, which fits the EM on a
    # factored design, is a pipeline stage
    code = (
        "import sys, spatialboost.inference\n"
        "print(*sorted(m for m in sys.modules if m.startswith('spatialboost')))"
    )
    src = os.path.dirname(os.path.dirname(spatialboost.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    loaded = out.stdout.split()
    assert loaded == ["spatialboost", "spatialboost.errors", "spatialboost.inference"]
