"""Power-law bath: parameters, damping frequency, thermal factor, noise kernel."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .constants import HBAR, K_B
from .errors import EvaluationError
from .specfun import QUAD_LIMIT, QUAD_REL_TOL

__all__ = [
    "BathSpec",
    "omega_s",
    "noise_kernel",
    "coth_thermal",
]


@dataclass(frozen=True)
class BathSpec:
    """Environment parameters.

    s: power-law exponent in (0, 2)
    g_s: coupling strength, Hz^(2-s)
    Omega: hard cutoff frequency, Hz
    T: temperature, K
    """

    s: float
    g_s: float
    Omega: float
    T: float = 0.0

    def __post_init__(self):
        if not (0 < self.s < 2):
            raise ValueError(f"s must be in (0, 2), got {self.s}")
        if not self.g_s > 0:
            raise ValueError(f"g_s must be positive, got {self.g_s}")
        if not self.Omega > 0:
            raise ValueError(f"Omega must be positive, got {self.Omega}")
        if self.T < 0:
            raise ValueError(f"T must be non-negative, got {self.T}")


def coth_thermal(spec: BathSpec, omega):
    """coth(hbar*omega / 2 kB T), with the T = 0 branch fixed to 1."""
    if spec.T == 0.0:
        if isinstance(omega, (float, int)):
            return 1.0
        return np.ones_like(np.asarray(omega, dtype=float))[()]
    x = HBAR * np.asarray(omega, dtype=float) / (2.0 * K_B * spec.T)
    with np.errstate(over="ignore", divide="ignore"):
        out = 1.0 / np.tanh(x)
    return out[()]


def omega_s(spec: BathSpec) -> float:
    """Characteristic damping frequency (g_s / sin(pi s / 2))^(1/(2-s))."""
    return (spec.g_s / math.sin(math.pi * spec.s / 2.0)) ** (1.0 / (2.0 - spec.s))


def noise_kernel(spec: BathSpec, inertia: float, t: float) -> float:
    """Noise kernel alpha_R(t) = (I g_s / pi) * int_0^Omega w^s coth(..) cos(wt) dw."""
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")

    def integrand(w):
        return w**spec.s * coth_thermal(spec, w) * math.cos(w * t)

    cycles = spec.Omega * t / (2.0 * math.pi)
    limit = max(QUAD_LIMIT, int(4 * cycles) + 50)
    val, err = quad(integrand, 0.0, spec.Omega,
                    epsabs=0.0, epsrel=QUAD_REL_TOL, limit=limit)
    if not math.isfinite(val) or (val != 0 and err > 1e-6 * abs(val)):
        raise EvaluationError("noise kernel quadrature did not converge",
                              t=t, value=val, error=err)
    return inertia * spec.g_s / math.pi * val
