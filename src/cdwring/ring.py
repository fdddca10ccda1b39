"""Quantum states on the ring and expectation values of the sliding operator."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bath import BathSpec
from .constants import HBAR
from .errors import EvaluationError
from .specfun import gauss_legendre
from . import decoherence, dynamics

__all__ = [
    "RingState",
    "w_isolated",
    "w_general",
    "w_early",
    "charge_density_amplitude",
    "charge_density",
]

_TWO_PI = 2.0 * math.pi

# windings per sector above which w_general raises; a sector has about
# 2 / |Gdot| of them, so this stops it once Gdot(t) falls below 2e-4
_MAX_WINDINGS = 10_000


@dataclass(frozen=True)
class RingState:
    """Initial reduced density matrix rho(theta, phi) on the ring.

    Construct through the classmethods; ``rho(a, b)`` evaluates the kernel
    with both arguments wrapped to [-pi, pi).
    """

    kind: str
    l: int = 0
    theta0: float = 0.0
    sigma: float = 0.0
    _norm: float = field(default=1.0, repr=False)

    @classmethod
    def ground(cls) -> "RingState":
        return cls(kind="ground")

    @classmethod
    def momentum(cls, l: int) -> "RingState":
        return cls(kind="momentum", l=int(l))

    @classmethod
    def wrapped_gaussian(cls, theta0: float, sigma: float) -> "RingState":
        if not sigma > 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        state = cls(kind="wrapped-gaussian", theta0=float(theta0), sigma=float(sigma))
        # normalize int |psi|^2 dtheta = 1 on a fine periodic grid
        th = np.linspace(-math.pi, math.pi, 4096, endpoint=False)
        norm_sq = np.mean(state._psi_unnormalized(th) ** 2) * _TWO_PI
        object.__setattr__(state, "_norm", 1.0 / math.sqrt(norm_sq))
        return state

    def _psi_unnormalized(self, theta):
        theta = np.asarray(theta, dtype=float)
        acc = np.zeros_like(theta)
        for k in range(-3, 4):
            acc += np.exp(-((theta - self.theta0 + _TWO_PI * k) ** 2)
                          / (4.0 * self.sigma**2))
        return acc

    def rho(self, a, b):
        """Density-matrix kernel rho(a, b), 2 pi periodic in both arguments."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if self.kind == "ground":
            return np.broadcast_arrays(a, b)[0] * 0j + 1.0 / _TWO_PI
        if self.kind == "momentum":
            return np.exp(1j * self.l * (a - b)) / _TWO_PI
        if self.kind == "wrapped-gaussian":
            psi_a = self._norm * self._psi_unnormalized(
                _wrap(a - self.theta0) + self.theta0)
            psi_b = self._norm * self._psi_unnormalized(
                _wrap(b - self.theta0) + self.theta0)
            return (psi_a * psi_b).astype(complex)
        raise ValueError(f"unknown state kind {self.kind!r}")

    def trace(self, n: int = 2048) -> float:
        th = np.linspace(-math.pi, math.pi, n, endpoint=False)
        return float(np.real(np.mean(self.rho(th, th))) * _TWO_PI)


def _wrap(x):
    """Wrap angles to [-pi, pi)."""
    return np.mod(np.asarray(x) + math.pi, _TWO_PI) - math.pi


def _periodic_integral(f, rel_tol=1e-8, n0=512, max_doublings=5):
    """Trapezoid rule on the periodic circle, doubling until stable; raises
    EvaluationError if the last doubling still moves the value by more."""
    n = n0
    prev = change = None
    for _ in range(max_doublings + 1):
        th = np.linspace(-math.pi, math.pi, n, endpoint=False)
        val = np.mean(f(th)) * _TWO_PI
        if prev is not None:
            change = abs(val - prev)
            if change <= rel_tol * max(1.0, abs(val)):
                return val
        prev = val
        n *= 2
    raise EvaluationError("periodic trapezoid rule did not converge",
                          points=n // 2, value=prev, change=change)


def w_isolated(state: RingState, mu: float, t: float) -> complex:
    """Expectation of the sliding operator for the isolated ring.

    <W(t)> = (1/2) int dtheta e^{i theta} [e^{it/2mu} rho(theta + t/mu, theta)
             + rho(theta, theta - t/mu) e^{-it/2mu}].
    """
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if abs(state.trace() - 1.0) > 1e-6:
        raise ValueError("state is not normalized")
    shift = t / mu
    phase = np.exp(0.5j * t / mu)

    def f(th):
        return 0.5 * np.exp(1j * th) * (
            phase * state.rho(th + shift, th)
            + state.rho(th, th - shift) * np.conj(phase))

    return _periodic_integral(f)


def _gauss_segment(f, a, b):
    x, w = gauss_legendre(128)
    u = 0.5 * (b - a) * (x + 1.0) + a
    return 0.5 * (b - a) * np.dot(w, f(u))


def _windings(c: float, Gdot: float):
    """Windings n of one sector with their shift and theta windows.

    The shift is f_n = 2 pi n Gdot - c.  rho(th - f_n, th) needs th - f_n in
    (-pi, pi) and rho(th, th + f_n) needs th + f_n in (-pi, pi); the windows
    (a_plus, b_plus, a_minus, b_minus) are those ranges of th within
    (-pi, pi).  Returns the (n, f_n, windows) whose windows are not empty:
    the union over th of the admissible windings.
    """
    lo = (c - _TWO_PI) / (_TWO_PI * Gdot)
    hi = (c + _TWO_PI) / (_TWO_PI * Gdot)
    if Gdot < 0:
        lo, hi = hi, lo
    out = []
    for n in range(math.floor(lo) + 1, math.ceil(hi)):
        f_n = _TWO_PI * n * Gdot - c
        windows = (max(-math.pi, -math.pi + f_n), min(math.pi, math.pi + f_n),
                   max(-math.pi, -math.pi - f_n), min(math.pi, math.pi - f_n))
        if windows[3] > windows[2]:
            out.append((n, f_n, windows))
    return out


def w_general(state: RingState, spec: BathSpec, mu: float, inertia: float,
              t: float, gamma_early: float | None = None) -> complex:
    """General winding-summed expectation value of the sliding operator.

    Winding n is damped by the noise action of the relative path from f_n to
    2 pi n: the damped classical path (``noise_action``), or, given the
    early-time Gamma(t) (``gamma_early``), the free path, whose form is
    Gamma_n = A0 ((2 pi n)^2 + f_n^2) + 2 B0 (2 pi n) f_n with
    A0 = Gamma (mu/t)^2 and A0 + B0 = (mu^2 / 2t) dGamma/dt.

    Raises EvaluationError when a sector has more than 10,000 windings
    (Gdot(t) near 0) or the normalization vanishes.
    """
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    if abs(state.trace() - 1.0) > 1e-6:
        raise ValueError("state is not normalized")
    G, Gdot = dynamics.g_fun(spec, t)
    windings = 2.0 / abs(Gdot) if Gdot else math.inf
    if windings > _MAX_WINDINGS:
        raise EvaluationError(f"Gdot(t) = {Gdot:.3g} needs about {windings:.3g} "
                              f"windings per sector, more than {_MAX_WINDINGS}",
                              t=t, Gdot=Gdot, windings=windings)
    Gddot = dynamics.g_ddot(spec, t)
    terms = [(j, n, f_n, windows)
             for j, c in ((1, G / mu), (2, 0.0))
             for n, f_n, windows in _windings(c, Gdot)]
    phi_f = np.array([_TWO_PI * n for _, n, _, _ in terms])
    phi_i = np.array([f_n for _, _, f_n, _ in terms])
    # every winding's Gamma from one evaluation of the quadratic form
    if gamma_early is None:
        gams = decoherence.noise_action(phi_f, phi_i, t, spec, inertia)
    else:
        # (mu/t)^2 alone overflows for t far below mu
        a0 = gamma_early / t * mu / t * mu
        b0 = 0.5 * decoherence._gamma_early_rate(spec, mu, t) / t * mu * mu - a0
        gams = a0 * (phi_f * phi_f + phi_i * phi_i) + 2.0 * b0 * phi_f * phi_i
    r = np.zeros((2, 2), dtype=complex)  # rows: sectors 1, 2; columns: +, -
    for (j, n, f_n, (a_plus, b_plus, a_minus, b_minus)), gam in zip(terms, gams):
        fdot_n = _TWO_PI * n * Gddot - (Gdot / mu if j == 1 else 0.0)
        damp = math.exp(-gam)
        sector = (-1.0) ** n if j == 1 else 1.0
        phase_half = np.exp(0.5j * mu * f_n * fdot_n)
        i_plus = _gauss_segment(
            lambda th: state.rho(th - f_n, th) * np.exp(-1j * mu * th * fdot_n),
            a_plus, b_plus)
        i_minus = _gauss_segment(
            lambda th: state.rho(th, th + f_n) * np.exp(-1j * mu * th * fdot_n),
            a_minus, b_minus)
        r[j - 1, 0] += sector * damp * phase_half * i_plus
        r[j - 1, 1] += sector * damp * np.conj(phase_half) * i_minus
    num, den = r[:, 0] + r[:, 1]
    if abs(den) < 1e-300:
        raise EvaluationError("normalization denominator of <W> vanished",
                              t=t, numerator=num, denominator=den)
    return num / den


def w_early(state: RingState, spec: BathSpec, mu: float, t: float) -> complex:
    """``w_general`` with the free path's noise action; at t = 0 the
    isolated value <e^{i theta}>."""
    if t == 0.0:
        return w_isolated(state, mu, t)
    return w_general(state, spec, mu, HBAR * mu, t,
                     gamma_early=decoherence.gamma_early(spec, mu, t))


def charge_density_amplitude(spec: BathSpec, mu: float, n1: float,
                             t: float) -> tuple[float, float]:
    """Oscillating charge-density amplitude and its noise action (n1_osc, Gamma).

    n1_osc = n1 Re <W(t)> of the flat state, from ``w_early``, and Gamma is
    the early-time noise action.  The flat state carries no signal at t = 0.
    """
    gam = decoherence.gamma_early(spec, mu, t)
    if t == 0.0:
        return 0.0, gam
    w = w_general(RingState.ground(), spec, mu, HBAR * mu, t, gamma_early=gam)
    return float(n1 * w.real), gam


def charge_density(x: float, t: float, n0: float, n1: float, kF: float,
                   spec: BathSpec, mu: float) -> float:
    """Charge density n(x, t) = n0 + n1_osc(t) cos(2 kF x)."""
    amp, _ = charge_density_amplitude(spec, mu, n1, t)
    return n0 + amp * math.cos(2.0 * kF * x)
