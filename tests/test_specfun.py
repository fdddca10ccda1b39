"""Tests for the special-function kernel.

Large-negative Mittag-Leffler and 1F2 reference values were frozen from an
independent arbitrary-precision series summation (mpmath, working precision
scaled to the peak-term magnitude so the alternating cancellation is fully
resolved; 20 significant digits retained).
"""

import math

import numpy as np
import pytest

from cdwring import specfun
from cdwring.errors import EvaluationError
from cdwring.specfun import (
    mittag_leffler,
    hyp1f2,
    gauss_legendre,
    inverse_laplace,
)

# (alpha, beta, x) -> E_{alpha,beta}(x), frozen high-precision references
ML_REFERENCE = [
    (0.8, 2.0, -1.0, 0.59790131634080448615),
    (1.2, 2.0, -50.0, 0.017289781250409203325),
    (0.8, 1.0, -200.0, 0.0010959340727899075648),
    (1.0, 1.0, -40.0, 4.2483542552915889953e-18),
    (1.5, 1.5, -100.0, -4.0187938178347689031e-5),
    (0.8, 2.0, -300.0, 0.0036253956054217179696),
]


class TestSeriesControl:
    def test_defaults(self):
        # the series and quadrature settings every caller runs with
        assert specfun.SERIES_REL_TOL == 1e-10
        assert specfun.SERIES_MAX_TERMS == 1_000_000
        assert specfun.QUAD_REL_TOL == 1e-10
        assert specfun.QUAD_LIMIT == 500


class TestMittagLeffler:
    def test_exponential_identity(self):
        # E_{1,1}(x) = e^x on a log-spaced grid
        for x in np.concatenate([-np.geomspace(1e-3, 30, 25),
                                 np.geomspace(1e-3, 30, 25)]):
            val = mittag_leffler(1.0, 1.0, float(x))
            assert val == pytest.approx(math.exp(x), rel=1e-9)

    def test_expm1_identity(self):
        # E_{1,2}(x) = (e^x - 1)/x
        # the series truncates at the default relative tolerance 1e-10
        assert mittag_leffler(1.0, 2.0, 1.0) == pytest.approx(math.e - 1.0,
                                                              rel=1e-9)

    def test_zero_argument(self):
        # E_{a,b}(0) = 1/Gamma(b)
        assert mittag_leffler(0.7, 1.0, 0.0) == pytest.approx(1.0)
        assert mittag_leffler(0.7, 2.0, 0.0) == pytest.approx(1.0)
        assert mittag_leffler(0.7, 3.0, 0.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("alpha,beta,x,expected", ML_REFERENCE)
    def test_frozen_references(self, alpha, beta, x, expected):
        assert mittag_leffler(alpha, beta, x) == pytest.approx(expected,
                                                               rel=1e-9)

    def test_derivative_identity(self):
        # d/dt [t E_{a,2}(-l t^a)] = E_{a,1}(-l t^a), by central differences
        rng = np.random.default_rng(7)
        for _ in range(20):
            alpha = rng.uniform(0.5, 1.8)
            lam = rng.uniform(0.1, 3.0)
            t = rng.uniform(0.2, 4.0)
            h = 1e-6 * t

            def G(tt):
                return tt * mittag_leffler(alpha, 2.0, -lam * tt**alpha)

            fd = (G(t + h) - G(t - h)) / (2.0 * h)
            direct = mittag_leffler(alpha, 1.0, -lam * t**alpha)
            assert fd == pytest.approx(direct, rel=1e-5)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mittag_leffler(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            mittag_leffler(2.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            mittag_leffler(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            mittag_leffler(1.0, 1.0, math.inf)

    def test_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(specfun, "SERIES_MAX_TERMS", 2)
        with pytest.raises(EvaluationError) as exc_info:
            mittag_leffler(1.0, 1.0, 3.0)
        assert exc_info.value.diagnostics  # partial diagnostics attached

    def test_inverse_laplace_consistency(self):
        # E_{2-s,2} enters the fundamental solution; check the transform pair
        # t E_{a,2}(-(w t)^a) <-> 1/(z^2 + z w^a z^(a-1)) at s = 1.2
        s, w = 1.2, 1.3
        a = 2.0 - s
        for t in (0.3, 1.0, 4.0):
            direct = t * mittag_leffler(a, 2.0, -((w * t) ** a))
            ref = inverse_laplace(
                lambda z: 1.0 / (z * z + z * w ** a * z ** (s - 1.0)), t)
            assert direct == pytest.approx(ref, rel=1e-6)


class TestHyp1F2:
    def test_unit_at_origin(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = rng.uniform(-3, 3)
            b1 = rng.uniform(0.05, 4.0)
            b2 = rng.uniform(0.05, 4.0)
            assert hyp1f2(a, b1, b2, 0.0) == 1.0

    def test_frozen_references(self):
        # arguments arising in the low-temperature noise-action closed form
        assert hyp1f2(-0.9, 0.5, 0.1, -0.25) == pytest.approx(
            5.4664971886684488619, rel=1e-12)
        assert hyp1f2(0.5, 0.5, 1.5, -1.0) == pytest.approx(
            0.4546487134128408477, rel=1e-12)

    def test_large_negative_argument(self):
        # |z| ~ 1e4 is the acceptance window scale; the alternating series
        # must stay cancellation-safe
        val = hyp1f2(0.1, 1.5, 1.1, -1.0e4)
        assert math.isfinite(val)
        assert abs(val) < 1.0

    def test_parameter_pole(self):
        with pytest.raises(ValueError):
            hyp1f2(1.0, 0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            hyp1f2(1.0, 1.0, -2.0, 0.5)

    def test_nonfinite_argument(self):
        with pytest.raises(ValueError):
            hyp1f2(1.0, 1.0, 1.0, math.nan)


class TestGaussLegendre:
    def test_same_rule_built_once(self):
        x, w = gauss_legendre(128)
        ref_x, ref_w = np.polynomial.legendre.leggauss(128)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
        assert gauss_legendre(128)[0] is x
        # callers share the cached arrays, so none may write to them
        with pytest.raises(ValueError):
            x[0] = 0.0


class TestInverseLaplace:
    def test_power_rule(self):
        # L^-1[1/z^2] = t
        assert inverse_laplace(lambda z: 1.0 / z**2, 3.0) == pytest.approx(
            3.0, rel=1e-10)

    def test_damped_relaxation(self):
        gamma = 0.5
        val = inverse_laplace(lambda z: 1.0 / (z * z + 2.0 * gamma * z), 1.0)
        assert val == pytest.approx((1.0 - math.exp(-1.0)) / (2.0 * gamma),
                                    rel=1e-10)

    def test_exponentials(self):
        for a in (-1.0, 0.0, 1.0):
            for t in np.linspace(0.25, 5.0, 8):
                val = inverse_laplace(lambda z: 1.0 / (z - a), float(t))
                assert val == pytest.approx(math.exp(a * t), rel=1e-8)

    def test_requires_positive_time(self):
        with pytest.raises(ValueError):
            inverse_laplace(lambda z: 1.0 / z**2, 0.0)

    def test_nonfinite_result_raises(self):
        with pytest.raises(EvaluationError):
            inverse_laplace(lambda z: complex(math.nan, 0.0), 1.0)
