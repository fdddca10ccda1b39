"""Physical constants used throughout the package (CODATA, SI units)."""

from scipy.constants import hbar as HBAR
from scipy.constants import k as K_B
from scipy.constants import mu_0 as MU_0
from scipy.constants import e as E_CHARGE

__all__ = ["HBAR", "K_B", "MU_0", "E_CHARGE"]
