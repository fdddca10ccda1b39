"""Physical-parameter derivations for the ring: inertia, reduced inertia, period."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import HBAR

__all__ = [
    "RingSpec",
    "DerivedScales",
    "derived_scales",
]


@dataclass(frozen=True)
class RingSpec:
    """Physical parameters of the CDW ring (SI units)."""

    R: float        # radius, m
    vF: float       # Fermi velocity, m/s
    c0: float       # phason velocity, m/s
    n0: float       # mean charge density
    n1: float       # modulation amplitude
    kF: float       # Fermi wave number, 1/m

    def __post_init__(self):
        for name in ("R", "vF", "c0", "n0", "n1", "kF"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.c0 > self.vF:
            raise ValueError("phason velocity c0 cannot exceed vF")


@dataclass(frozen=True)
class DerivedScales:
    """Inertia I, reduced inertia mu = I/hbar, and oscillation period P."""

    I: float
    mu: float
    P: float


def derived_scales(ring: RingSpec) -> DerivedScales:
    """I = hbar R vF / c0^2, mu = I/hbar, P = 4 pi mu."""
    mu = ring.R * ring.vF / ring.c0**2
    return DerivedScales(I=HBAR * mu, mu=mu, P=4.0 * math.pi * mu)
