"""Physical constants used throughout the package (CODATA, SI units)."""

from scipy.constants import hbar as HBAR
from scipy.constants import k as K_B

__all__ = ["HBAR", "K_B"]
