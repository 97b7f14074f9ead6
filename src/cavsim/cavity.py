"""Single-sided cavity parameters and reflection coefficients.

Conventions used throughout the package:

* kappa and gamma are HWHM decay rates (half widths), in any one
  consistent angular-frequency unit.
* Cooperativity C = g**2 / (2 * kappa * gamma).
* Detunings are dimensionless fractions of the relevant linewidth:
  delta_c = (omega_p - omega_c) / kappa, delta_a = (omega_p - omega_a) / gamma.
* kappa_ratio = kappa_r / kappa is the fraction of the total cavity decay
  that goes out the input-output mirror; kappa_ratio = 1 is the lossless
  (overcoupled, no scattering/transmission) limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "BASELINE_PARAMS",
    "CavityParams",
    "ReflectionPair",
    "reflection_amplitudes",
    "reflection_lossy",
    "reflection_lossless",
]


@dataclass(frozen=True)
class CavityParams:
    """Dimensionless operating point of one atom-cavity system.

    zeta is the spatial mode-matching probability of the incoming photon
    to the cavity mode (zeta = 1: perfect matching).
    """

    c: float
    delta_c: float = 0.0
    delta_a: float = 0.0
    kappa_ratio: float = 1.0
    zeta: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c >= 0):
            raise ValueError("cooperativity must be finite and >= 0")
        if not 0.0 <= self.kappa_ratio <= 1.0:
            raise ValueError("kappa_ratio must lie in [0, 1]")
        if not 0.0 <= self.zeta <= 1.0:
            raise ValueError("zeta must lie in [0, 1]")
        if not (math.isfinite(self.delta_c) and math.isfinite(self.delta_a)):
            raise ValueError("detunings must be finite")


# common reference point of the scheme-comparison sweeps
BASELINE_PARAMS = CavityParams(c=4.0, kappa_ratio=0.916, zeta=0.92)


@dataclass(frozen=True)
class ReflectionPair:
    """Complex reflection amplitudes for the coupled / non-coupled atom.

    t_c_sq and t_nc_sq are the corresponding single-pass loss
    probabilities 1 - |r|**2 (cavity scattering, transmission and
    spontaneous emission lumped together).

    from_amplitudes owns |r| <= 1: it accepts an |r| within 1e-12 of 1
    (not a NaN) and stores r / |r| where |r| is more than 1e-15 above 1.
    Computed pairs stay within 1 + 4.4e-16 and keep their bits.
    """

    r_c: complex
    r_nc: complex
    t_c_sq: float
    t_nc_sq: float

    @classmethod
    def from_amplitudes(cls, r_c: complex, r_nc: complex) -> "ReflectionPair":
        ac = abs(r_c)
        anc = abs(r_nc)
        if not (ac <= 1.0 + 1e-12 and anc <= 1.0 + 1e-12):  # a NaN fails it
            raise ValueError("reflection amplitudes must satisfy |r| <= 1")
        if ac > 1.0 + 1e-15:
            r_c, ac = r_c / ac, 1.0
        if anc > 1.0 + 1e-15:
            r_nc, anc = r_nc / anc, 1.0
        return cls(
            r_c=complex(r_c),
            r_nc=complex(r_nc),
            t_c_sq=max(0.0, 1.0 - ac * ac),
            t_nc_sq=max(0.0, 1.0 - anc * anc),
        )

    @classmethod
    def ideal(cls) -> "ReflectionPair":
        """Perfect gate limit: r_c = 1, r_nc = -1, no loss."""
        return cls(r_c=1.0 + 0j, r_nc=-1.0 + 0j, t_c_sq=0.0, t_nc_sq=0.0)


def reflection_amplitudes(c, delta_c, delta_a, kappa_ratio):
    """Raw (r_c, r_nc) pair; accepts scalars or numpy arrays.

        r_c  = 1 - 2*(kappa_r/kappa)*(i*delta_a + 1)
                   / ((i*delta_c + 1)*(i*delta_a + 1) + 2C)
        r_nc = 1 - 2*(kappa_r/kappa) / (i*delta_c + 1)
    """
    dc = 1j * delta_c + 1.0
    da = 1j * delta_a + 1.0
    r_c = 1.0 - 2.0 * kappa_ratio * da / (dc * da + 2.0 * c)
    r_nc = 1.0 - 2.0 * kappa_ratio / dc
    return r_c, r_nc


def reflection_lossy(p: CavityParams) -> ReflectionPair:
    """Reflection amplitudes of a single-sided cavity with mirror loss.

    The non-reflected probability 1 - |r|**2 leaves through the lossy
    mirror or the atom and never returns.
    """
    r_c, r_nc = reflection_amplitudes(p.c, p.delta_c, p.delta_a, p.kappa_ratio)
    return ReflectionPair.from_amplitudes(r_c, r_nc)


def reflection_lossless(c: float, delta_c: float = 0.0, delta_a: float = 0.0) -> ReflectionPair:
    """Reflection amplitudes for kappa_r = kappa (pure phase response).

        r_c  = ((i*delta_c - 1)*(i*delta_a + 1) + 2C)
               / ((i*delta_c + 1)*(i*delta_a + 1) + 2C)
        r_nc = (i*delta_c - 1) / (i*delta_c + 1)

    |r_nc| = 1 always; |r_c| < 1 only through the atomic channel.
    """
    num_c = (1j * delta_c - 1.0) * (1j * delta_a + 1.0) + 2.0 * c
    den_c = (1j * delta_c + 1.0) * (1j * delta_a + 1.0) + 2.0 * c
    r_c = num_c / den_c
    r_nc = (1j * delta_c - 1.0) / (1j * delta_c + 1.0)
    return ReflectionPair.from_amplitudes(r_c, r_nc)
