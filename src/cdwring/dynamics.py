"""Fundamental solution G(t), its derivatives, classical paths, damping timescale."""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import brentq

from .bath import BathSpec, omega_s
from .errors import RootNotFoundError
from .specfun import mittag_leffler

__all__ = [
    "PathBoundary",
    "g_fun",
    "g_ddot",
    "kappa",
    "classical_paths",
    "tau_damp",
]


@dataclass(frozen=True)
class PathBoundary:
    """Boundary data for the classical paths on [0, t]."""

    phi_plus_i: float
    phi_plus_f: float
    phi_minus_i: float
    phi_minus_f: float
    t: float

    def __post_init__(self):
        if not self.t > 0:
            raise ValueError(f"t must be positive, got {self.t}")


def g_fun(spec: BathSpec, t: float) -> tuple[float, float]:
    """Fundamental solution G(t) and its derivative Gdot(t).

    G(t) = t * E_{2-s,2}[-(w_s t)^(2-s)], Gdot(t) = E_{2-s,1}[-(w_s t)^(2-s)];
    the ohmic case s = 1 uses the exact exponential form with gamma = g_1/2.
    """
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    if t == 0.0:
        return 0.0, 1.0
    if spec.s == 1.0:
        two_gamma = spec.g_s
        return -math.expm1(-two_gamma * t) / two_gamma, math.exp(-two_gamma * t)
    alpha = 2.0 - spec.s
    x = -((omega_s(spec) * t) ** alpha)
    G = t * mittag_leffler(alpha, 2.0, x)
    Gdot = mittag_leffler(alpha, 1.0, x)
    return G, Gdot


def g_ddot(spec: BathSpec, t: float) -> float:
    """Second derivative of G, from the term-wise series identity.

    Gddot(t) = -w_s^(2-s) t^(1-s) E_{2-s,2-s}[-(w_s t)^(2-s)].  Diverges at
    t = 0 for super-ohmic damping (s > 1); returns -inf there.
    """
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    if spec.s == 1.0:
        return -spec.g_s * math.exp(-spec.g_s * t)
    if t == 0.0:
        return 0.0 if spec.s < 1.0 else -math.inf
    alpha = 2.0 - spec.s
    ws = omega_s(spec)
    x = -((ws * t) ** alpha)
    return -(ws**alpha) * t ** (1.0 - spec.s) * mittag_leffler(alpha, alpha, x)


def kappa(spec: BathSpec, u: float, t: float) -> tuple[float, float]:
    """Boundary-interpolation coefficients kappa_i(u;t), kappa_f(u;t)."""
    if not 0 <= u <= t:
        raise ValueError(f"u must lie in [0, t], got u={u}, t={t}")
    if not t > 0:
        raise ValueError("t must be positive")
    Gt, Gdt = g_fun(spec, t)
    if Gt == 0.0:
        raise ValueError("G(t) vanishes; kappa coefficients are undefined")
    Gu, Gdu = g_fun(spec, u)
    return Gdu - Gdt / Gt * Gu, Gu / Gt


def classical_paths(b: PathBoundary, spec: BathSpec, u: float) -> tuple[float, float]:
    """Classical paths phi+_cl(u), phi-_cl(u); phi- interpolates in reversed time."""
    ki, kf = kappa(spec, u, b.t)
    ki_r, kf_r = kappa(spec, b.t - u, b.t)
    phi_plus = ki * b.phi_plus_i + kf * b.phi_plus_f
    phi_minus = ki_r * b.phi_minus_f + kf_r * b.phi_minus_i
    return phi_plus, phi_minus


def tau_damp(spec: BathSpec, horizon_factor: float = 1e6,
             rel_tol: float = 1e-6) -> float:
    """Smallest t with Gdot(t) <= 1/e, by geometric bracketing and bisection."""
    target = math.exp(-1.0)
    ws = omega_s(spec)
    horizon = horizon_factor / ws
    t_lo = 1e-6 / ws
    f_lo = g_fun(spec, t_lo)[1] - target
    if f_lo <= 0.0:
        return t_lo
    t = t_lo
    while t < horizon:
        t_next = t * 1.2
        f_next = g_fun(spec, t_next)[1] - target
        if f_next <= 0.0:
            root = brentq(lambda tt: g_fun(spec, tt)[1] - target, t, t_next,
                          rtol=rel_tol)
            return root
        t = t_next
    raise RootNotFoundError(
        f"Gdot never reached 1/e within horizon {horizon:.3e} s")
