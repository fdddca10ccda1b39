"""Noise action Gamma: general quadrature, early-time form, closed form, tau_decoh."""

from __future__ import annotations

import math
import sys
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad, quad_vec
from scipy.optimize import brentq

from .bath import BathSpec, coth_thermal
from .constants import HBAR
from .errors import EvaluationError, RootNotFoundError
from .specfun import QUAD_LIMIT, QUAD_REL_TOL, gauss_legendre, hyp1f2
from . import dynamics

__all__ = [
    "noise_action",
    "gamma_early",
    "gamma_early_lowT",
    "tau_decoh",
]


# largest Gauss rule noise_action builds (Omega * t up to about 5250); beyond
# it the call raises instead of running a rule too coarse for the phase
_MAX_NODES = 4000


def _upsilon(x: float) -> float:
    """2 + x^2 - 2 cos x - 2 x sin x, cancellation-safe near x = 0.

    Small-x series: x^4/4 - x^6/72 + x^8/2880 - ...
    """
    if abs(x) < 0.5:
        x2 = x * x
        return x2 * x2 * (0.25 + x2 * (-1.0 / 72.0 + x2 * (1.0 / 2880.0
                          - x2 / 201600.0)))
    return 2.0 + x * x - 2.0 * math.cos(x) - 2.0 * x * math.sin(x)


def noise_action(phi_minus_f, phi_minus_i, t: float, spec: BathSpec,
                 inertia: float):
    """Noise action for the classical relative path with the given boundaries.

    The double time integral of phi-(tau) alpha_R(tau - tau') phi-(tau') is
    factorized exactly through the frequency representation of alpha_R:

        Gamma = (mu g_s / 2 pi) int_0^Omega w^s coth(hw/2kT) |Phi(w)|^2 dw,
        Phi(w) = int_0^t phi-(u) e^{i w u} du,

    with phi-(u) = kappa_i(t-u) phi-_f + kappa_f(t-u) phi-_i.  So Gamma is the
    quadratic form A phi-_f^2 + 2B phi-_f phi-_i + C phi-_i^2, and one
    vector-valued quadrature gives (A, B, C) for (spec, t).  The boundary
    values broadcast against each other; scalar input returns a float.
    Raises EvaluationError if Omega * t needs more than 4000 Gauss nodes or
    the quadrature misses its tolerance.
    """
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    phi_f, phi_i = np.broadcast_arrays(np.asarray(phi_minus_f, dtype=float),
                                       np.asarray(phi_minus_i, dtype=float))
    if not (phi_f.any() or phi_i.any()):
        return 0.0 if phi_f.ndim == 0 else np.zeros(phi_f.shape)
    # Gauss-Legendre nodes resolving up to Omega * t radians of phase
    n_nodes = max(96, int(0.75 * spec.Omega * t) + 64)
    if n_nodes > _MAX_NODES:
        raise EvaluationError("noise action needs more Gauss nodes than allowed",
                              t=t, omega_t=spec.Omega * t, n_nodes=n_nodes)
    x, w = gauss_legendre(n_nodes)
    u = 0.5 * t * (x + 1.0)
    # Gauss weights times kappa_i(t - u; t) and kappa_f(t - u; t)
    Gt, Gdt = dynamics.g_fun(spec, t)
    if Gt == 0.0:
        raise ValueError("G(t) vanishes; kappa coefficients are undefined")
    Gv, Gdv = np.array([dynamics.g_fun(spec, t - ui) for ui in u]).T
    weighted = 0.5 * t * w * np.array([Gdv - Gdt / Gt * Gv, Gv / Gt])

    def integrand(omega):
        # K = weighted @ e^{i w u}: |K_i|^2, Re(K_i conj K_f), |K_f|^2
        c, s = weighted @ np.cos(omega * u), weighted @ np.sin(omega * u)
        form = np.append(c[0] * c + s[0] * s, c[1] * c[1] + s[1] * s[1])
        return omega**spec.s * coth_thermal(spec, omega) * form

    cycles = spec.Omega * t / (2.0 * math.pi)
    limit = max(QUAD_LIMIT, int(4 * cycles) + 50)
    val, err = quad_vec(integrand, 0.0, spec.Omega, epsabs=0.0,
                        epsrel=QUAD_REL_TOL, norm="max", limit=limit)
    if not np.all(np.isfinite(val)) or err > 1e-6 * np.max(np.abs(val)):
        raise EvaluationError("noise action quadrature did not converge",
                              t=t, value=val, error=err)
    A, B, C = inertia / HBAR * spec.g_s / (2.0 * math.pi) * val
    gamma = A * phi_f * phi_f + 2.0 * B * phi_f * phi_i + C * phi_i * phi_i
    return float(gamma) if gamma.ndim == 0 else gamma


def _split_integral(spec: BathSpec, t: float, p: float, inner, tail) -> float:
    """int_0^Omega coth(hw/2kT) w^p k(w) dw for an early-time kernel k.

    k is ``inner`` up to w t = 50 and the sum of the ``tail`` (kernel, weight)
    pairs beyond, where weight None, "cos" or "sin" of w t selects QUADPACK's
    weighted rule.  Raises EvaluationError when the summed error estimates
    exceed 1e-6 of the total and the smallest normal double: below that, at
    t of order 1e-80 s and less, the kernel itself has underflowed.
    """
    w_split = min(spec.Omega, 50.0 / t)
    opts = dict(epsabs=0.0, epsrel=QUAD_REL_TOL, limit=QUAD_LIMIT)

    def weighted(kernel):
        return lambda w: coth_thermal(spec, w) * w ** p * kernel(w)

    with warnings.catch_warnings():
        # the summed error estimate is checked below
        warnings.simplefilter("ignore", IntegrationWarning)
        total, err = quad(weighted(inner), 0.0, w_split, **opts)
        if w_split < spec.Omega:
            rest = 0.0
            for kernel, weight in tail:
                v, e = quad(weighted(kernel), w_split, spec.Omega,
                            weight=weight, wvar=t, **opts)
                rest += v
                err += e
            total += rest
    if not math.isfinite(total) or err > max(1e-6 * abs(total),
                                             sys.float_info.min):
        raise EvaluationError("early-time quadrature did not converge",
                              t=t, value=total, error=err)
    return total


def gamma_early(spec: BathSpec, mu: float, t: float) -> float:
    """Early-time noise action Gamma_{T,s}(t) by adaptive quadrature.

    Gamma = (g_s / 2 pi mu) int_0^Omega coth(hw/2kT) w^(s-4) *
            (2 + w^2 t^2 - 2 cos wt - 2 wt sin wt) dw,

    the noise action of the undamped path phi-(u) = u / mu.
    """
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if t == 0.0:
        return 0.0
    total = _split_integral(spec, t, spec.s - 4.0, lambda w: _upsilon(w * t),
                            [(lambda w: 2.0 + (w * t) ** 2, None),
                             (lambda w: -2.0, "cos"),
                             (lambda w: -2.0 * w * t, "sin")])
    return spec.g_s / (2.0 * math.pi * mu) * total


def _gamma_early_rate(spec: BathSpec, mu: float, t: float) -> float:
    """dGamma/dt of ``gamma_early`` for t > 0.

    Since d/dx (2 + x^2 - 2 cos x - 2 x sin x) = 2x (1 - cos x),
    dGamma/dt = (g_s t / pi mu) int_0^Omega coth(hw/2kT) w^(s-2) (1 - cos wt) dw.
    """
    total = _split_integral(spec, t, spec.s - 2.0,
                            lambda w: 2.0 * math.sin(0.5 * w * t) ** 2,
                            [(lambda w: 1.0, None), (lambda w: -1.0, "cos")])
    return spec.g_s * t / (math.pi * mu) * total


def _gamma_lowT_expr(s: float, g_s: float, Omega: float, mu: float, t: float) -> float:
    # termwise reduction of the cutoff integral:
    #   int_0^Om w^(s-4) [2 - 2 cos wt] dw      -> f1 block
    #   int_0^Om w^(s-4) [w^2 t^2 - 2wt sin wt] -> f2 block
    z = -0.25 * t * t * Omega * Omega
    f1 = hyp1f2((s - 3.0) / 2.0, 0.5, (s - 1.0) / 2.0, z)
    f2 = hyp1f2((s - 1.0) / 2.0, 1.5, (s + 1.0) / 2.0, z)
    pref = g_s / (2.0 * math.pi * mu)
    term1 = -2.0 * Omega ** (s - 3.0) * (f1 - 1.0) / (s - 3.0)
    term2 = t * t * Omega ** (s - 1.0) * (1.0 - 2.0 * f2) / (s - 1.0)
    return pref * (term1 + term2)


def gamma_early_lowT(spec: BathSpec, mu: float, t: float) -> float:
    """Zero-temperature closed form of Gamma_{T,s}(t) in terms of 1F2.

    The displayed expression has a removable singularity at s = 1, evaluated
    by a symmetric epsilon offset.
    """
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    if t == 0.0:
        return 0.0
    if abs(spec.s - 1.0) < 1e-9:
        eps = 1e-6
        lo = _gamma_lowT_expr(1.0 - eps, spec.g_s, spec.Omega, mu, t)
        hi = _gamma_lowT_expr(1.0 + eps, spec.g_s, spec.Omega, mu, t)
        return 0.5 * (lo + hi)
    return _gamma_lowT_expr(spec.s, spec.g_s, spec.Omega, mu, t)


def tau_decoh(spec: BathSpec, mu: float, horizon_factor: float = 1e8,
              rel_tol: float = 1e-6) -> float:
    """Root of Gamma_{T,s}(t) = 1 by geometric bracket expansion + bisection."""
    horizon = horizon_factor * mu
    t = mu
    f = gamma_early(spec, mu, t) - 1.0
    if f >= 0.0:
        # already decohered by t = mu; expand the bracket downward
        t_hi, f_hi = t, f
        t_lo = t / 2.0
        while gamma_early(spec, mu, t_lo) - 1.0 > 0.0:
            t_hi = t_lo
            t_lo /= 2.0
            if t_lo < 1e-12 * mu:
                raise RootNotFoundError("Gamma exceeds 1 at all probed times")
        return brentq(lambda tt: gamma_early(spec, mu, tt) - 1.0,
                      t_lo, t_hi, rtol=rel_tol)
    while t < horizon:
        t_next = t * 2.0
        f_next = gamma_early(spec, mu, t_next) - 1.0
        if f_next >= 0.0:
            return brentq(lambda tt: gamma_early(spec, mu, tt) - 1.0,
                          t, t_next, rtol=rel_tol)
        t = t_next
    raise RootNotFoundError(
        f"Gamma never reached 1 within horizon {horizon:.3e} s")

