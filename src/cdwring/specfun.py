"""Special-function kernel: Mittag-Leffler, 1F2, Gauss-Legendre, Talbot.

All routines are pure functions of their arguments and safe to call
concurrently.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import mpmath
import numpy as np
from scipy.special import rgamma, gammaln, gammasgn

from .errors import EvaluationError

__all__ = [
    "SERIES_REL_TOL",
    "SERIES_MAX_TERMS",
    "QUAD_REL_TOL",
    "QUAD_LIMIT",
    "mittag_leffler",
    "hyp1f2",
    "gauss_legendre",
    "inverse_laplace",
]


# convergence settings of the series and of every adaptive quadrature
SERIES_REL_TOL = 1e-10
SERIES_MAX_TERMS = 1_000_000
QUAD_REL_TOL = 1e-10
QUAD_LIMIT = 500

# Nominal switchover radius for the Mittag-Leffler power series at negative
# argument.  The float series is only trusted while the predicted
# cancellation stays below ~3 decimal digits, which further restricts the
# radius when alpha is small.
ML_SERIES_RADIUS = 5.0
_CANCEL_GUARD = 7.0  # |x|**(1/alpha) above which float cancellation is unsafe


def _ml_series_float(alpha: float, beta: float, x: float) -> float:
    """Power series sum_k x^k / Gamma(alpha*k + beta) in double precision."""
    total = 0.0
    k = 0
    logax = math.log(abs(x)) if x != 0.0 else -math.inf
    sign = 1.0
    while k < SERIES_MAX_TERMS:
        g = alpha * k + beta
        log_term = k * logax - gammaln(g)
        term = sign * gammasgn(g) * math.exp(log_term) if log_term > -745 else 0.0
        total += term
        if k > 0 and abs(term) <= SERIES_REL_TOL * max(abs(total), 1e-300):
            # one extra term as a safety margin
            return total
        if x < 0:
            sign = -sign
        k += 1
    raise EvaluationError(
        "Mittag-Leffler series did not converge",
        alpha=alpha, beta=beta, x=x, terms=k, partial=total,
    )


def _ml_asymptotic(alpha: float, beta: float, x: float):
    """Algebraic expansion -sum_{k>=1} x^-k / Gamma(beta - alpha k) for x -> -inf.

    Returns (value, ok).  The error estimate combines the smallest retained
    term with the exponentially small contribution
    exp(|x|^(1/alpha) cos(pi/alpha)), which decays for all alpha < 2.
    """
    total = 0.0
    prev = math.inf
    last = math.inf
    inv_x = 1.0 / x
    for k in range(1, 200):
        term = -rgamma(beta - alpha * k) * inv_x**k
        if term == 0.0:
            last = 0.0
            break
        if abs(term) > prev:
            last = abs(term)
            break
        total += term
        prev = abs(term)
        last = prev
    root = abs(x) ** (1.0 / alpha)
    exp_part = math.exp(root * math.cos(math.pi / alpha)) if root * abs(
        math.cos(math.pi / alpha)) < 700 else 0.0
    err = last + exp_part
    ok = err <= SERIES_REL_TOL * abs(total) and total != 0.0
    return total, ok


def _ml_series_mp(alpha: float, beta: float, x: float) -> float:
    """Arbitrary-precision series summation, sized to absorb cancellation."""
    root = abs(x) ** (1.0 / alpha) if x != 0 else 0.0
    dps = 25 + int(0.5 * root)
    with mpmath.workdps(dps):
        xm = mpmath.mpf(x)
        am = mpmath.mpf(alpha)
        bm = mpmath.mpf(beta)
        total = mpmath.mpf(0)
        term_scale = mpmath.mpf(0)
        k = 0
        power = mpmath.mpf(1)
        while k < SERIES_MAX_TERMS:
            # the gamma argument must carry full precision: a double-rounded
            # argument perturbs the huge alternating terms inconsistently and
            # the cancellation never recovers
            term = power / mpmath.gamma(am * k + bm)
            total += term
            term_scale = max(term_scale, abs(term))
            if k > 2 and abs(term) < mpmath.mpf(10) ** (-dps) * term_scale:
                return float(total)
            power *= xm
            k += 1
    raise EvaluationError(
        "Mittag-Leffler extended-precision series did not converge",
        alpha=alpha, beta=beta, x=x, terms=k,
    )


def mittag_leffler(alpha: float, beta: float, x: float) -> float:
    """Generalized Mittag-Leffler function E_{alpha,beta}(x) for real x.

    Power series for moderate arguments; for large negative x the algebraic
    large-argument expansion is used when its truncation error is below
    ``SERIES_REL_TOL``, with an extended-precision series as fallback.
    """
    if not (0 < alpha <= 2):
        raise ValueError(f"alpha must be in (0, 2], got {alpha}")
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    if x == 0.0:
        return rgamma(beta)
    if x > 0 or (abs(x) <= ML_SERIES_RADIUS
                 and abs(x) ** (1.0 / alpha) <= _CANCEL_GUARD):
        return _ml_series_float(alpha, beta, x)
    value, ok = _ml_asymptotic(alpha, beta, x)
    if ok:
        return value
    return _ml_series_mp(alpha, beta, x)


def hyp1f2(a: float, b1: float, b2: float, z: float) -> float:
    """Generalized hypergeometric 1F2(a; b1, b2; z) for real z.

    Entire in z; evaluated by extended-precision summation so that the
    alternating series at large negative z stays cancellation-safe.
    """
    for b in (b1, b2):
        if b <= 0 and float(b).is_integer():
            raise ValueError(f"parameter pole: lower parameter {b} is a non-positive integer")
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    if z == 0.0:
        return 1.0
    # series terms peak near exp(3*|z|^(1/3)); budget digits accordingly
    extra = int(1.5 * abs(z) ** (1.0 / 3.0)) + 20
    try:
        with mpmath.workdps(15 + extra):
            val = mpmath.hyper([a], [b1, b2], z)
            return float(val)
    except mpmath.libmp.NoConvergence as exc:
        raise EvaluationError(
            "1F2 summation did not converge", a=a, b1=b1, b2=b2, z=z,
        ) from exc


@functools.lru_cache(maxsize=32)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only n-point Gauss-Legendre nodes and weights on [-1, 1], cached."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def inverse_laplace(F: Callable[[complex], complex], t: float,
                    n_nodes: int = 24) -> float:
    """Numerical Bromwich inversion of ``F`` at ``t`` by the fixed Talbot rule.

    The contour is the cotangent spiral of Abate and Valko with ``n_nodes``
    nodes; ``F`` must be analytic to the right of (and on) the contour.
    Intended as an oracle for fundamental-solution checks, not as a
    general-purpose transform inverter.
    """
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    M = int(n_nodes)
    r = 2.0 * M / (5.0 * t)
    try:
        acc = 0.5 * math.exp(r * t) * complex(F(complex(r, 0.0))).real
        for k in range(1, M):
            theta = k * math.pi / M
            cot = math.cos(theta) / math.sin(theta)
            s = r * theta * complex(cot, 1.0)
            sigma = theta + (theta * cot - 1.0) * cot
            val = complex(F(s))
            acc += (np.exp(t * s) * val * complex(1.0, sigma)).real
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise EvaluationError("Talbot contour evaluation failed", t=t, n_nodes=M) from exc
    result = acc * r / M
    if not math.isfinite(result):
        raise EvaluationError("Talbot inversion returned non-finite value",
                              t=t, n_nodes=M, value=result)
    return result
