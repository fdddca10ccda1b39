"""Tests for the fundamental solution, classical paths, and tau_damp."""

import math

import numpy as np
import pytest

from cdwring.bath import BathSpec, omega_s
from cdwring.dynamics import (
    PathBoundary,
    g_fun,
    g_ddot,
    kappa,
    classical_paths,
    tau_damp,
)
from cdwring.errors import RootNotFoundError
from cdwring.specfun import inverse_laplace

OHMIC = BathSpec(s=1.0, g_s=1.0, Omega=1e3)          # gamma = 0.5
NO_DAMPING = BathSpec(s=1.0, g_s=1e-14, Omega=1e3)   # effectively isolated


class TestGFun:
    def test_initial_conditions(self):
        for s in (0.5, 1.0, 1.3):
            G, Gdot = g_fun(BathSpec(s=s, g_s=1.0, Omega=1e3), 0.0)
            assert G == 0.0
            assert Gdot == 1.0

    def test_ohmic_exact(self):
        # 2 gamma = g_1 = 1
        for t in np.linspace(0.0, 10.0, 40):
            G, Gdot = g_fun(OHMIC, float(t))
            assert G == pytest.approx(1.0 - math.exp(-t), rel=1e-12, abs=1e-15)
            assert Gdot == pytest.approx(math.exp(-t), rel=1e-12)

    def test_ohmic_limit_of_series_branch(self):
        # the Mittag-Leffler branch at s -> 1 must meet the exponential form
        near = BathSpec(s=1.0 + 1e-9, g_s=1.0, Omega=1e3)
        for t in np.linspace(0.05, 10.0, 15):
            G, Gdot = g_fun(near, float(t))
            G0, Gdot0 = g_fun(OHMIC, float(t))
            assert G == pytest.approx(G0, rel=1e-6)
            assert Gdot == pytest.approx(Gdot0, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("s", [0.8, 1.2])
    def test_against_laplace_inversion(self, s):
        spec = BathSpec(s=s, g_s=1.0, Omega=1e3)
        ws = omega_s(spec)

        def image(z):
            return 1.0 / (z * z + z * ws ** (2.0 - s) * z ** (s - 1.0))

        for t in np.geomspace(1e-3 / ws, 1e2 / ws, 50):
            G, _ = g_fun(spec, float(t))
            ref = inverse_laplace(image, float(t))
            assert G == pytest.approx(ref, rel=1e-6)

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.2, 1.5])
    def test_derivative_consistency(self, s):
        spec = BathSpec(s=s, g_s=1.0, Omega=1e3)
        ws = omega_s(spec)
        for t in np.linspace(0.05 / ws, 10.0 / ws, 100):
            h = 1e-5 * t
            fd = (g_fun(spec, t + h)[0] - g_fun(spec, t - h)[0]) / (2.0 * h)
            assert fd == pytest.approx(g_fun(spec, t)[1], rel=1e-6, abs=1e-9)

    # Deep sub-ohmic baths (s well below ~0.5) approach the undamped-rotor
    # limit where G oscillates through zero, so the bounds below only hold
    # for moderate exponents.
    @pytest.mark.parametrize("s", [0.8, 1.0, 1.4, 1.9])
    def test_subballistic_bounds(self, s):
        spec = BathSpec(s=s, g_s=1.0, Omega=1e3)
        ws = omega_s(spec)
        for t in np.geomspace(1e-3 / ws, 30.0 / ws, 60):
            G, _ = g_fun(spec, float(t))
            assert 0.0 <= G <= t * (1.0 + 1e-12)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            g_fun(OHMIC, -1.0)


class TestGDdot:
    def test_ohmic_exact(self):
        assert g_ddot(OHMIC, 2.0) == pytest.approx(-math.exp(-2.0), rel=1e-12)

    @pytest.mark.parametrize("s", [0.8, 1.2])
    def test_finite_difference(self, s):
        spec = BathSpec(s=s, g_s=1.0, Omega=1e3)
        for t in (1e-2, 0.3, 1.0, 4.0):
            h = 1e-5 * t
            fd = (g_fun(spec, t + h)[1] - g_fun(spec, t - h)[1]) / (2.0 * h)
            assert fd == pytest.approx(g_ddot(spec, t), rel=1e-5)

    def test_origin_behavior(self):
        assert g_ddot(BathSpec(s=0.7, g_s=1.0, Omega=1e3), 0.0) == 0.0
        assert g_ddot(BathSpec(s=1.3, g_s=1.0, Omega=1e3), 0.0) == -math.inf


class TestClassicalTrajectory:
    def test_static_in_no_damping_limit(self):
        # theta(t) = G(t) thetadot0 + Gdot(t) theta0 with thetadot0 = 0
        # stays at theta0
        for t in (0.0, 1.0, 10.0):
            _, Gdot = g_fun(NO_DAMPING, t)
            assert Gdot * 0.3 == pytest.approx(0.3, rel=1e-10)


class TestKappa:
    def test_boundary_values(self):
        ki, kf = kappa(OHMIC, 0.0, 1.0)
        assert ki == pytest.approx(1.0)
        assert kf == pytest.approx(0.0, abs=1e-15)
        ki, kf = kappa(OHMIC, 1.0, 1.0)
        assert ki == pytest.approx(0.0, abs=1e-12)
        assert kf == pytest.approx(1.0)

    def test_ohmic_midpoint(self):
        # kappa_f(0.5; 1) = G(0.5)/G(1) = (1 - e^-0.5)/(1 - e^-1)
        _, kf = kappa(OHMIC, 0.5, 1.0)
        expected = (1.0 - math.exp(-0.5)) / (1.0 - math.exp(-1.0))
        assert kf == pytest.approx(expected, rel=1e-12)
        assert kf == pytest.approx(0.62246, abs=5e-6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kappa(OHMIC, -0.1, 1.0)
        with pytest.raises(ValueError):
            kappa(OHMIC, 1.1, 1.0)


class TestClassicalPaths:
    def test_boundary_conditions_exact(self):
        b = PathBoundary(0.2, 1.4, -0.5, 0.9, t=1.3)
        spec = BathSpec(s=1.2, g_s=1.0, Omega=1e3)
        p0, m0 = classical_paths(b, spec, 0.0)
        pt, mt = classical_paths(b, spec, b.t)
        assert p0 == pytest.approx(b.phi_plus_i, rel=1e-12)
        assert m0 == pytest.approx(b.phi_minus_i, rel=1e-12)
        assert pt == pytest.approx(b.phi_plus_f, rel=1e-12)
        assert mt == pytest.approx(b.phi_minus_f, rel=1e-12)

    def test_no_damping_straight_line(self):
        b = PathBoundary(0.0, 1.0, 0.2, 0.8, t=2.0)
        for u in np.linspace(0.0, 2.0, 9):
            p, _ = classical_paths(b, NO_DAMPING, float(u))
            assert p == pytest.approx(u / 2.0, rel=1e-8, abs=1e-10)

    def test_ohmic_closed_form(self):
        # phi+ with boundaries (0, 1): kappa_f(u) = G(u)/G(t)
        b = PathBoundary(0.0, 1.0, 0.0, 1.0, t=1.0)
        p, m = classical_paths(b, OHMIC, 0.5)
        Gt = 1.0 - math.exp(-1.0)
        assert p == pytest.approx((1.0 - math.exp(-0.5)) / Gt, rel=1e-12)
        # phi- runs in reversed time: its final boundary rides kappa_i(t - u)
        ki_r = math.exp(-0.5) - math.exp(-1.0) / Gt * (1.0 - math.exp(-0.5))
        assert m == pytest.approx(ki_r, rel=1e-12)

    def test_boundary_requires_positive_t(self):
        with pytest.raises(ValueError):
            PathBoundary(0.0, 1.0, 0.0, 1.0, t=0.0)


class TestClassicalAction:
    def test_derivative_against_finite_differences(self):
        # the action's boundary velocity phid+(u) = kappa_i'(u) phi+_i +
        # kappa_f'(u) phi+_f comes from Gdot and Gddot, as in w_general
        b = PathBoundary(0.0, 1.0, 0.0, 1.0, t=1.0)
        Gt, Gdt = g_fun(OHMIC, b.t)
        h = 1e-6
        for u in (0.3, 0.7, 1.0 - h):
            _, Gdu = g_fun(OHMIC, u)
            velocity = ((g_ddot(OHMIC, u) - Gdt / Gt * Gdu) * b.phi_plus_i
                        + Gdu / Gt * b.phi_plus_f)
            fd = (classical_paths(b, OHMIC, u + h)[0]
                  - classical_paths(b, OHMIC, u - h)[0]) / (2.0 * h)
            assert velocity == pytest.approx(fd, rel=1e-6)


class TestTauDamp:
    def test_ohmic_value(self):
        # Gdot = e^(-2 gamma t) crosses 1/e at t = 1/(2 gamma) = 1
        assert tau_damp(OHMIC) == pytest.approx(1.0, rel=1e-5)

    def test_short_horizon_not_found(self):
        # the ohmic crossing sits at t = 1/g = 1/omega_s, beyond a 0.1/omega_s
        # search horizon
        with pytest.raises(RootNotFoundError):
            tau_damp(OHMIC, horizon_factor=0.1)

    def test_subohmic_stable_under_tolerance_halving(self):
        spec = BathSpec(s=0.5, g_s=1.0, Omega=1e3)
        coarse = tau_damp(spec, rel_tol=1e-6)
        fine = tau_damp(spec, rel_tol=5e-7)
        assert coarse == pytest.approx(fine, rel=1e-5)
