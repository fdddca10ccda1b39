"""Brute-force ground truth: explicit discretized bath and direct-sum kernels."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath import BathSpec
from .constants import HBAR, K_B

__all__ = [
    "ODE_CUTOFFS",
    "DiscreteBath",
    "discretize_bath",
    "simulate_bath_ode",
    "noise_kernel_direct",
    "total_energy",
]

# bath exponent s -> cutoff Omega (scaled units, g = I = 1) at which the
# 4096-mode bath ODE reproduces G(t) to 1e-3; `cdwring oracle` interpolates
# between them geometrically in s
ODE_CUTOFFS = {0.8: 185.0, 1.0: 2000.0, 1.2: 2300.0}


@dataclass(frozen=True)
class DiscreteBath:
    """Explicit oscillator modes {omega_j, C_j} with common mass and ring inertia.

    ``tail_inertia`` is the inertia that the spectral weight above the
    cutoff adds to the ring by following it adiabatically; it is zero for a
    bath built by hand.
    """

    omegas: np.ndarray
    couplings: np.ndarray
    mass: float
    inertia: float
    tail_inertia: float = 0.0

    def __post_init__(self):
        om = np.asarray(self.omegas, dtype=float)
        C = np.asarray(self.couplings, dtype=float)
        if om.shape != C.shape:
            raise ValueError("omegas and couplings must have matching shapes")
        if np.any(om <= 0):
            raise ValueError("all mode frequencies must be positive")
        if np.any(C < 0):
            raise ValueError("couplings must be non-negative")
        if self.tail_inertia < 0:
            raise ValueError("tail_inertia must be non-negative")


def discretize_bath(spec: BathSpec, inertia: float, n_modes: int,
                    mass: float = 1.0) -> DiscreteBath:
    """Uniform-bin discretization of the power-law spectral density.

    Mode j sits at the midpoint omega_j of the bin [a_j, b_j] of width
    dω = Omega / n_modes and carries the bin's exact share of the friction
    kernel: C_j^2 = (2/pi) m omega_j^2 int_{a_j}^{b_j} J(w)/w dw, which is
    (2/pi) m omega_j J(omega_j) dω for s = 1.  The weight above Omega,
    (2/pi) int_Omega^inf J(w)/w^3 dw = I delta with
    delta = 2 g Omega^(s-2) / ((2-s) pi), is the tail inertia: a hard cutoff
    alone would leave the ring with the effective inertia I (1 - delta).
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    s = spec.s
    dw = spec.Omega / n_modes
    edges = np.arange(n_modes + 1) * dw
    omegas = edges[:-1] + 0.5 * dw
    friction = inertia * spec.g_s * np.diff(edges**s) / s
    couplings = np.sqrt(2.0 / math.pi * mass * omegas**2 * friction)
    tail = (inertia * 2.0 * spec.g_s * spec.Omega ** (s - 2.0)
            / ((2.0 - s) * math.pi))
    return DiscreteBath(omegas=omegas, couplings=couplings,
                        mass=mass, inertia=inertia, tail_inertia=tail)


def _rhs(bath: DiscreteBath, theta, thetadot, R, Rdot):
    # thetadot is p / I: the ring and the tail move together with p / (I + I_t)
    disp = R - bath.couplings * theta / (bath.mass * bath.omegas**2)
    vel_theta = thetadot * bath.inertia / (bath.inertia + bath.tail_inertia)
    acc_theta = np.dot(bath.couplings, disp) / bath.inertia
    acc_R = -bath.omegas**2 * R + bath.couplings * theta / bath.mass
    return vel_theta, acc_theta, Rdot, acc_R


def simulate_bath_ode(bath: DiscreteBath, theta0: float, thetadot0: float,
                      t_grid, R0=None, Rdot0=None,
                      steps_per_cutoff_period: int = 50,
                      return_final_state: bool = False):
    """Fixed-step RK4 integration of the ring + discrete-bath equations of motion.

    The ring carries the bath's tail inertia I_t, which starts at rest, so
    the ring starts with momentum p = I thetadot0; ``thetadot`` here and in
    the returned final state is p / I.  With the bath initially at rest at
    the origin the trajectory approaches G(t) thetadot0 + Gdot(t) theta0 as
    the mode count grows, for t well above 1 / Omega; the theta0 term keeps
    a relative error of about I_t / I, because the tail moves with the ring
    from the start instead of starting at the origin.  The step is held at
    or below 2 pi / (steps_per_cutoff_period * max omega).
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


def total_energy(bath: DiscreteBath, theta, thetadot, R, Rdot) -> float:
    """Conserved energy of the ring + bath system; ``thetadot`` is p / I."""
    disp = R - bath.couplings * theta / (bath.mass * bath.omegas**2)
    p = bath.inertia * thetadot
    return (0.5 * p**2 / (bath.inertia + bath.tail_inertia)
            + 0.5 * bath.mass * np.dot(Rdot, Rdot)
            + 0.5 * bath.mass * np.dot(bath.omegas**2, disp * disp))


def noise_kernel_direct(bath: DiscreteBath, T: float, t: float) -> float:
    """Direct mode sum for alpha_R(t)."""
    weights = bath.couplings**2 / (2.0 * bath.mass * bath.omegas)
    if T > 0:
        weights = weights / np.tanh(HBAR * bath.omegas / (2.0 * K_B * T))
    return float(np.dot(weights, np.cos(bath.omegas * t)))
