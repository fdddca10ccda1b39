"""Quantum Brownian motion of a charge-density-wave ring phase.

Fundamental solutions of the damped phase equation, noise-action
decoherence factors, winding-number expectation values, and a
discretized-bath oracle for cross validation.
"""

__version__ = "0.1.0"

from .bath import BathSpec, omega_s, spectral_density, memory_kernel_laplace, noise_kernel
from .dynamics import g_fun, g_ddot, kappa, classical_paths, tau_damp
from .decoherence import (
    noise_action,
    gamma_early,
    gamma_early_lowT,
    tau_decoh,
    tau_Q,
    lattice_points,
)
from .ring import (
    RingState,
    w_isolated,
    w_general,
    w_early,
    charge_density_amplitude,
    charge_density,
)
from .params import (
    RingSpec,
    CircuitSpec,
    CommensurabilitySpec,
    derived_scales,
    circuit_coupling,
    radius_upper_bound,
    commensurability_energy,
    cdw_wavelength,
)
from .specfun import mittag_leffler, hyp1f2, inverse_laplace
from .errors import (
    EvaluationError,
    RootNotFoundError,
    DegenerateWindowError,
    DegenerateNormalizationError,
)

__all__ = [
    "__version__",
    "BathSpec",
    "omega_s",
    "spectral_density",
    "memory_kernel_laplace",
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
    "tau_Q",
    "lattice_points",
    "RingState",
    "w_isolated",
    "w_general",
    "w_early",
    "charge_density_amplitude",
    "charge_density",
    "RingSpec",
    "CircuitSpec",
    "CommensurabilitySpec",
    "derived_scales",
    "circuit_coupling",
    "radius_upper_bound",
    "commensurability_energy",
    "cdw_wavelength",
    "mittag_leffler",
    "hyp1f2",
    "inverse_laplace",
    "EvaluationError",
    "RootNotFoundError",
    "DegenerateWindowError",
    "DegenerateNormalizationError",
]
