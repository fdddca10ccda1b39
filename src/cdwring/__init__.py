"""Quantum Brownian motion of a charge-density-wave ring phase.

Fundamental solutions of the damped phase equation, noise-action
decoherence factors, winding-number expectation values, and a
discretized-bath oracle for cross validation.
"""

__version__ = "0.1.0"

from .bath import BathSpec, omega_s, noise_kernel
from .dynamics import g_fun, g_ddot, kappa, classical_paths, tau_damp
from .decoherence import noise_action, gamma_early, gamma_early_lowT, tau_decoh
from .ring import (RingState, w_isolated, w_general, w_early,
                   charge_density_amplitude, charge_density)
from .params import RingSpec, derived_scales
from .specfun import mittag_leffler, hyp1f2, inverse_laplace
from .errors import EvaluationError, RootNotFoundError

__all__ = [
    "__version__",
    "BathSpec",
    "omega_s",
    "noise_kernel",
    "g_fun",
    "g_ddot",
    "kappa",
    "classical_paths",
    "tau_damp",
    "noise_action",
    "gamma_early",
    "gamma_early_lowT",
    "tau_decoh",
    "RingState",
    "w_isolated",
    "w_general",
    "w_early",
    "charge_density_amplitude",
    "charge_density",
    "RingSpec",
    "derived_scales",
    "mittag_leffler",
    "hyp1f2",
    "inverse_laplace",
    "EvaluationError",
    "RootNotFoundError",
]
