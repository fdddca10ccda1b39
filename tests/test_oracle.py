"""Tests for the brute-force discrete-bath oracle."""

import math

import numpy as np
import pytest

from cdwring import oracle
from cdwring.bath import BathSpec, noise_kernel
from cdwring.dynamics import g_fun, tau_damp
from cdwring.errors import EvaluationError
from cdwring.oracle import (
    ODE_CUTOFFS,
    DiscreteBath,
    discretize_bath,
    simulate_bath_ode,
    noise_kernel_direct,
)

SCALED = BathSpec(s=1.2, g_s=1.0, Omega=200.0, T=0.0)


# Fixed-step RK4 integration of the same equations of motion: the reference
# that the normal-mode solution of simulate_bath_ode is checked against.

def _rhs(bath: DiscreteBath, theta, thetadot, R, Rdot):
    # thetadot is p / I: the ring and the tail move together with p / (I + I_t)
    disp = R - bath.couplings * theta / (bath.mass * bath.omegas**2)
    vel_theta = thetadot * bath.inertia / (bath.inertia + bath.tail_inertia)
    acc_theta = np.dot(bath.couplings, disp) / bath.inertia
    acc_R = -bath.omegas**2 * R + bath.couplings * theta / bath.mass
    return vel_theta, acc_theta, Rdot, acc_R


def _rk4_reference(bath: DiscreteBath, theta0: float, thetadot0: float,
                   t_grid, R0=None, Rdot0=None,
                   steps_per_cutoff_period: int = 50,
                   return_final_state: bool = False):
    """Fixed-step RK4 integration of the ring + discrete-bath equations of motion.

    The ring carries the bath's tail inertia I_t, which starts at rest, so
    the ring starts with momentum p = I thetadot0; ``thetadot`` here and in
    the returned final state is p / I.  The step is held at or below
    2 pi / (steps_per_cutoff_period * max omega).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) <= 0) or t_grid[0] < 0:
        raise ValueError("t_grid must be non-negative and strictly increasing")
    n_modes = bath.omegas.size
    recurrence = 2.0 * math.pi * n_modes / bath.omegas.max()
    if t_grid[-1] > recurrence:
        raise ValueError(
            f"t_grid extends past the Poincare recurrence time {recurrence:.3e}")
    h_max = 2.0 * math.pi / (steps_per_cutoff_period * bath.omegas.max())

    theta = float(theta0)
    thetadot = float(thetadot0)
    R = np.zeros(n_modes) if R0 is None else np.array(R0, dtype=float)
    Rdot = np.zeros(n_modes) if Rdot0 is None else np.array(Rdot0, dtype=float)

    out = np.empty(t_grid.size)
    t = 0.0
    for i, t_target in enumerate(t_grid):
        span = t_target - t
        if span > 0:
            n_steps = max(1, math.ceil(span / h_max))
            h = span / n_steps
            for _ in range(n_steps):
                k1 = _rhs(bath, theta, thetadot, R, Rdot)
                k2 = _rhs(bath, theta + 0.5 * h * k1[0], thetadot + 0.5 * h * k1[1],
                          R + 0.5 * h * k1[2], Rdot + 0.5 * h * k1[3])
                k3 = _rhs(bath, theta + 0.5 * h * k2[0], thetadot + 0.5 * h * k2[1],
                          R + 0.5 * h * k2[2], Rdot + 0.5 * h * k2[3])
                k4 = _rhs(bath, theta + h * k3[0], thetadot + h * k3[1],
                          R + h * k3[2], Rdot + h * k3[3])
                theta += h / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
                thetadot += h / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
                R = R + h / 6.0 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
                Rdot = Rdot + h / 6.0 * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3])
            t = t_target
        out[i] = theta
    if return_final_state:
        return out, (theta, thetadot, R, Rdot)
    return out


def _total_energy(bath: DiscreteBath, theta, thetadot, R, Rdot) -> float:
    """Conserved energy of the ring + bath system; ``thetadot`` is p / I."""
    disp = R - bath.couplings * theta / (bath.mass * bath.omegas**2)
    p = bath.inertia * thetadot
    return (0.5 * p**2 / (bath.inertia + bath.tail_inertia)
            + 0.5 * bath.mass * np.dot(Rdot, Rdot)
            + 0.5 * bath.mass * np.dot(bath.omegas**2, disp * disp))


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
        e0 = _total_energy(bath, 0.3, 1.0, np.zeros(1024), np.zeros(1024))
        _, (th, thd, R, Rd) = _rk4_reference(
            bath, 0.3, 1.0, [1.0], steps_per_cutoff_period=150,
            return_final_state=True)
        e1 = _total_energy(bath, th, thd, R, Rd)
        assert abs(e1 - e0) / e0 < 1e-6

    @pytest.mark.parametrize("s", sorted(ODE_CUTOFFS))
    def test_matches_rk4_reference(self, s):
        spec = BathSpec(s=s, g_s=1.0, Omega=ODE_CUTOFFS[s], T=0.0)
        bath = discretize_bath(spec, 1.0, 512)
        t_end = min(tau_damp(spec), 0.5 * 2.0 * math.pi * 512 / spec.Omega)
        t_grid = np.linspace(0.25 * t_end, t_end, 4)
        out = simulate_bath_ode(bath, 0.1, 2.0, t_grid)
        ref = _rk4_reference(bath, 0.1, 2.0, t_grid, steps_per_cutoff_period=200)
        assert np.max(np.abs(out - ref) / np.abs(ref)) < 1e-10

    @pytest.mark.parametrize("omegas, couplings", [
        ([1.0, 2.0, 3.0], [0.3, 0.0, 0.1]),   # a decoupled mode
        ([1.0, 2.0, 2.0, 3.0], [0.3, 0.2, 0.4, 0.1]),   # a repeated frequency
        ([3.0, 2.0, 1.0, 2.0], [0.1, 0.0, 0.3, 0.5]),   # both, unsorted
    ])
    def test_degenerate_modes_match_rk4_reference(self, omegas, couplings):
        bath = DiscreteBath(omegas=np.array(omegas), couplings=np.array(couplings),
                            mass=1.0, inertia=1.0)
        t_grid = np.linspace(0.5, 3.0, 4)
        out = simulate_bath_ode(bath, 0.1, 2.0, t_grid)
        ref = _rk4_reference(bath, 0.1, 2.0, t_grid, steps_per_cutoff_period=2000)
        assert np.max(np.abs(out - ref) / np.abs(ref)) < 1e-10

    def test_secular_solve_failure_raises(self, monkeypatch):
        def failing(i, d, z, rho):
            return np.full(d.size, np.nan), np.nan, np.full(d.size, np.nan), 1
        monkeypatch.setattr(oracle, "dlasd4", failing)
        bath = discretize_bath(SCALED, 1.0, 16)
        with pytest.raises(EvaluationError) as exc:
            simulate_bath_ode(bath, 0.0, 1.0, [0.1])
        assert exc.value.diagnostics == {"i": 0, "info": 1}

    def test_weight_sum_check_raises(self, monkeypatch):
        solve = oracle.dlasd4

        def shifted(i, d, z, rho):
            gap_minus, sigma, gap_plus, info = solve(i, d, z, rho)
            return 2.0 * gap_minus, sigma, gap_plus, info
        monkeypatch.setattr(oracle, "dlasd4", shifted)
        bath = discretize_bath(SCALED, 1.0, 16)
        with pytest.raises(EvaluationError) as exc:
            simulate_bath_ode(bath, 0.0, 1.0, [0.1])
        assert exc.value.diagnostics["n"] == 16
        assert abs(exc.value.diagnostics["sum"] - 1.0) > 1e-10

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
