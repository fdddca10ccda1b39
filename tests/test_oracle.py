"""Tests for the brute-force discrete-bath oracle."""

import math

import numpy as np
import pytest

from cdwring.bath import BathSpec, noise_kernel
from cdwring.dynamics import g_fun, tau_damp
from cdwring.oracle import (
    DiscreteBath,
    discretize_bath,
    simulate_bath_ode,
    noise_kernel_direct,
    total_energy,
)

SCALED = BathSpec(s=1.2, g_s=1.0, Omega=200.0, T=0.0)


class TestDiscretizeBath:
    def test_single_mode(self):
        spec = BathSpec(s=1.0, g_s=1.0, Omega=4.0, T=0.0)
        bath = discretize_bath(spec, inertia=1.0, n_modes=1)
        assert bath.omegas[0] == pytest.approx(2.0)
        # C^2 = (2/pi) m w J(w) dw with J = I g w
        assert bath.couplings[0] ** 2 == pytest.approx(
            2.0 / math.pi * 2.0 * 2.0 * 4.0, rel=1e-12)

    def test_sum_reproduces_integral(self):
        bath = discretize_bath(SCALED, 1.0, 4096)
        total = float(np.sum(math.pi * bath.couplings ** 2
                             / (2.0 * bath.mass * bath.omegas)))
        exact = SCALED.g_s * SCALED.Omega ** (SCALED.s + 1) / (SCALED.s + 1)
        assert total == pytest.approx(exact, rel=1e-3)

    def test_refinement_is_second_order(self):
        exact = SCALED.g_s * SCALED.Omega ** (SCALED.s + 1) / (SCALED.s + 1)
        errs = []
        for n in (256, 512, 1024):
            bath = discretize_bath(SCALED, 1.0, n)
            total = float(np.sum(math.pi * bath.couplings ** 2
                                 / (2.0 * bath.mass * bath.omegas)))
            errs.append(abs(total - exact) / exact)
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.0 < coarse / fine < 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            discretize_bath(SCALED, 1.0, 0)
        with pytest.raises(ValueError):
            DiscreteBath(omegas=np.array([1.0, -1.0]),
                         couplings=np.array([1.0, 1.0]),
                         mass=1.0, inertia=1.0)
        with pytest.raises(ValueError):
            DiscreteBath(omegas=np.array([1.0]),
                         couplings=np.array([1.0, 2.0]),
                         mass=1.0, inertia=1.0)


class TestSimulateBathOde:
    def test_free_rotor(self):
        bath = DiscreteBath(omegas=np.array([1.0, 2.0]),
                            couplings=np.zeros(2), mass=1.0, inertia=1.0)
        t_grid = np.linspace(0.5, 3.0, 4)
        out = simulate_bath_ode(bath, 0.2, 1.5, t_grid)
        assert np.allclose(out, 0.2 + 1.5 * t_grid, rtol=1e-10)

    def test_ohmic_relaxation(self):
        # gamma = 0.5; the damped trajectory reaches 1 - 1/e at t = 1
        spec = BathSpec(s=1.0, g_s=1.0, Omega=2000.0, T=0.0)
        bath = discretize_bath(spec, 1.0, 4096)
        theta = simulate_bath_ode(bath, 0.0, 1.0, [1.0])[0]
        assert theta == pytest.approx(1.0 - math.exp(-1.0), abs=1e-3)

    def test_subohmic_matches_trajectory(self):
        spec = BathSpec(s=0.8, g_s=1.0, Omega=185.0, T=0.0)
        bath = discretize_bath(spec, 1.0, 4096)
        t_end = min(tau_damp(spec), 0.5 * 2.0 * math.pi * 4096 / spec.Omega)
        t_grid = np.linspace(0.25 * t_end, t_end, 4)
        out = simulate_bath_ode(bath, 0.1, 2.0, t_grid)
        # classical trajectory G(t) thetadot0 + Gdot(t) theta0
        G, Gdot = np.array([g_fun(spec, float(t)) for t in t_grid]).T
        ref = G * 2.0 + Gdot * 0.1
        assert np.max(np.abs(out - ref) / np.abs(ref)) < 1e-3

    def test_converges_to_fundamental_solution(self):
        # fixed cutoff, growing mode count: the trajectory error against the
        # continuum fundamental solution must decrease monotonically
        spec = BathSpec(s=1.2, g_s=1.0, Omega=2000.0, T=0.0)
        rec = 2.0 * math.pi * 512 / spec.Omega
        t_end = min(1.0, 0.5 * rec)
        t_grid = np.linspace(0.25 * t_end, t_end, 4)
        ref = np.array([g_fun(spec, float(t))[0] for t in t_grid])
        errs = []
        for n in (512, 2048, 8192):
            bath = discretize_bath(spec, 1.0, n)
            out = simulate_bath_ode(bath, 0.0, 1.0, t_grid)
            errs.append(float(np.max(np.abs(out - ref) / np.abs(ref))))
        assert errs[0] > errs[1] > errs[2]

    def test_energy_conservation(self):
        bath = discretize_bath(SCALED, 1.0, 1024)
        e0 = total_energy(bath, 0.3, 1.0, np.zeros(1024), np.zeros(1024))
        _, (th, thd, R, Rd) = simulate_bath_ode(
            bath, 0.3, 1.0, [1.0], steps_per_cutoff_period=150,
            return_final_state=True)
        e1 = total_energy(bath, th, thd, R, Rd)
        assert abs(e1 - e0) / e0 < 1e-6

    def test_recurrence_guard(self):
        bath = discretize_bath(SCALED, 1.0, 16)
        horizon = 2.0 * math.pi * 16 / SCALED.Omega
        with pytest.raises(ValueError):
            simulate_bath_ode(bath, 0.0, 1.0, [2.0 * horizon])

    def test_rejects_unsorted_grid(self):
        bath = discretize_bath(SCALED, 1.0, 16)
        with pytest.raises(ValueError):
            simulate_bath_ode(bath, 0.0, 1.0, [0.2, 0.1])


class TestNoiseKernelDirect:
    def test_t0_closed_form(self):
        spec = BathSpec(s=1.2, g_s=1.0, Omega=1.0, T=0.0)
        bath = discretize_bath(spec, 1.0, 2**16)
        expected = spec.g_s * spec.Omega ** (spec.s + 1) / (
            math.pi * (spec.s + 1))
        assert noise_kernel_direct(bath, 0.0, 0.0) == pytest.approx(
            expected, rel=1e-4)

    def test_single_mode_cosine(self):
        bath = DiscreteBath(omegas=np.array([3.0]),
                            couplings=np.array([2.0]), mass=1.5, inertia=1.0)
        amp = 4.0 / (2.0 * 1.5 * 3.0)
        for t in (0.0, 0.4, 1.1):
            assert noise_kernel_direct(bath, 0.0, t) == pytest.approx(
                amp * math.cos(3.0 * t), rel=1e-12)

    def test_even_in_time(self):
        bath = discretize_bath(SCALED, 1.0, 128)
        for t in (0.01, 0.3):
            assert noise_kernel_direct(bath, 0.0, t) == pytest.approx(
                noise_kernel_direct(bath, 0.0, -t), rel=1e-14)

    def test_converges_to_quadrature(self):
        errs = []
        for n in (512, 2048, 8192):
            bath = discretize_bath(SCALED, 1.0, n)
            worst = 0.0
            for t in (0.0, 0.01, 0.05):
                ref = noise_kernel(SCALED, 1.0, t)
                worst = max(worst, abs(noise_kernel_direct(bath, 0.0, t) - ref)
                            / abs(ref))
            errs.append(worst)
        assert errs[0] > errs[1] > errs[2]
