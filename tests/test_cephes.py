"""The Cephes ports return scipy.special's doubles bit for bit."""

import math

import numpy as np
import pytest
from scipy import special

from musemc import _cephes

_EXP_M2 = math.exp(-2.0)


def _around(*points):
    """Each point with its two neighbouring doubles."""
    return [q for p in points for q in (np.nextafter(p, -np.inf), p, np.nextafter(p, np.inf))]


def _assert_bit_equal(port, ufunc, points):
    points = np.asarray(points, dtype=float)
    got = np.array([port(float(p)) for p in points])
    want = ufunc(points)
    same = (got.view(np.int64) == want.view(np.int64)) | (np.isnan(got) & np.isnan(want))
    assert same.all(), f"first mismatch at {points[~same][:3]}: {got[~same][:3]} against {want[~same][:3]}"


def _ndtri_points():
    rng = np.random.default_rng(20230)
    edges = [0.0, 0.5, 1.0, *_around(_EXP_M2, 1.0 - _EXP_M2, math.exp(-32.0)), 5e-324, -0.5, 1.5, math.nan, math.inf, -math.inf]
    return np.concatenate([
        rng.random(60_000),
        np.exp(-rng.uniform(0.0, 700.0, 30_000)),  # the left tail, past exp(-32) where z = 8
        -np.expm1(-rng.uniform(0.0, 37.0, 10_000)),  # the right tail, as close to 1 as a double gets
        edges,
    ])


def _erf_points():
    rng = np.random.default_rng(20231)
    root_maxlog = math.sqrt(7.09782712893383996843e2)  # -x * x passes -MAXLOG here: erfc underflows
    edges = [0.0, -0.0, *_around(1.0, -1.0, 8.0, -8.0, root_maxlog, -root_maxlog), 26.5, 27.3, -27.3, 40.0,
             5e-324, math.nan, math.inf, -math.inf]
    return np.concatenate([rng.uniform(-30.0, 30.0, 70_000), rng.uniform(-2.0, 2.0, 30_000), edges])


def test_ndtri_matches_scipy_bit_for_bit():
    _assert_bit_equal(_cephes.ndtri, special.ndtri, _ndtri_points())


@pytest.mark.parametrize("name", ["erfc", "erf"])
def test_erf_and_erfc_match_scipy_bit_for_bit(name):
    _assert_bit_equal(getattr(_cephes, name), getattr(special, name), _erf_points())
