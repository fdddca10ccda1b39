"""Brute-force ground truth: explicit discretized bath and direct-sum kernels."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dlasd4

from .bath import BathSpec
from .constants import HBAR, K_B
from .errors import EvaluationError

__all__ = [
    "ODE_CUTOFFS",
    "DiscreteBath",
    "discretize_bath",
    "simulate_bath_ode",
    "noise_kernel_direct",
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


def simulate_bath_ode(bath: DiscreteBath, theta0: float, thetadot0: float,
                      t_grid) -> np.ndarray:
    """Exact ring trajectory theta(t) of the ring + discrete-bath equations of motion.

    The ring carries the bath's tail inertia I_t, which starts at rest, so
    the ring starts with momentum p = I thetadot0, i.e. velocity
    v = p / (I + I_t); the bath starts at rest at the origin.  The
    trajectory approaches G(t) thetadot0 + Gdot(t) theta0 as the mode count
    grows, for t well above 1 / Omega; the theta0 term keeps a relative
    error of about I_t / I (delta), because the tail moves with the ring
    from the start instead of starting at the origin.

    Method: scaled by the masses (I + I_t, m, ..., m), the stiffness matrix
    is an arrowhead with diagonal omega_j^2, spine c_j = -C_j / sqrt(m (I + I_t))
    and corner sum c_j^2 / omega_j^2, so its secular function factors as
    -lambda [1 + sum z_j^2 / (omega_j^2 - lambda)], z_j = c_j / omega_j: a
    drift mode at lambda = 0 plus modes Omega_k^2, the eigenvalues of
    diag(omega^2) + z z^T.  LAPACK's dlasd4 finds each Omega_k in O(n) with
    the gaps omega_j -+ Omega_k, which give the ring's share of mode k,
    w_k = 1 / (1 + sum_j (c_j / ((omega_j - Omega_k)(omega_j + Omega_k)))^2),
    and of the drift, w_0 = 1 / (1 + sum (z_j / omega_j)^2); then
    theta(t) = w_0 (theta0 + v t) + sum_k w_k (theta0 cos Omega_k t
    + v sin(Omega_k t) / Omega_k).  Deflation: modes at one frequency are
    rotated into one mode with their root-sum-square coupling, and modes
    without coupling are dropped, as their ring weight is exactly zero.
    Raises EvaluationError when dlasd4 reports failure or the weights miss
    1 by more than 1e-10.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) <= 0) or t_grid[0] < 0:
        raise ValueError("t_grid must be non-negative and strictly increasing")
    recurrence = 2.0 * math.pi * bath.omegas.size / bath.omegas.max()
    if t_grid[-1] > recurrence:
        raise ValueError(
            f"t_grid extends past the Poincare recurrence time {recurrence:.3e}")

    total_inertia = bath.inertia + bath.tail_inertia
    omegas, group = np.unique(bath.omegas, return_inverse=True)
    c2 = (np.bincount(group, weights=bath.couplings**2)
          / (bath.mass * total_inertia))
    omegas, c2 = omegas[c2 > 0], c2[c2 > 0]
    z2 = c2 / omegas**2
    rho = float(np.sum(z2))
    z_unit = np.sqrt(z2 / rho)
    freqs = np.empty(omegas.size)
    weights = np.empty(omegas.size)
    for k in range(omegas.size):
        gap_minus, freqs[k], gap_plus, info = dlasd4(k, omegas, z_unit, rho)
        if info != 0:
            raise EvaluationError("secular equation solve failed", i=k, info=info)
        weights[k] = 1.0 / (1.0 + np.sum(c2 / (gap_minus * gap_plus) ** 2))
    drift = 1.0 / (1.0 + np.sum(z2 / omegas**2))
    weight_sum = drift + float(np.sum(weights))
    if not abs(weight_sum - 1.0) <= 1e-10:
        raise EvaluationError("normal-mode weights do not sum to 1",
                              n=omegas.size, sum=weight_sum)

    theta0 = float(theta0)
    v = bath.inertia * float(thetadot0) / total_inertia
    return np.array([
        drift * (theta0 + v * t)
        + np.dot(weights, theta0 * np.cos(freqs * t) + v * np.sin(freqs * t) / freqs)
        for t in t_grid])


def noise_kernel_direct(bath: DiscreteBath, T: float, t: float) -> float:
    """Direct mode sum for alpha_R(t)."""
    weights = bath.couplings**2 / (2.0 * bath.mass * bath.omegas)
    if T > 0:
        weights = weights / np.tanh(HBAR * bath.omegas / (2.0 * K_B * T))
    return float(np.dot(weights, np.cos(bath.omegas * t)))
