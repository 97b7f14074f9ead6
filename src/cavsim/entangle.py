"""Atom-atom entanglement closed forms.

Covers the two-node photon-mediated protocols (one gate per node, the
photon measured at the end) for both gate schemes, and the variant
where two atoms sit in the same cavity. All forms here assume perfect
mode matching (zeta = 1) except two_atoms_one_cavity, which carries the
mismatch terms explicitly; mismatched two-node chains can be composed
from the oracle module's element functions instead.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import NamedTuple

from .analytic import HERALD_TOL, NoHeraldError, _reduce_phase
from .cavity import CavityParams, ReflectionPair, reflection_lossy

__all__ = [
    "TwoCavitySetup",
    "OldEntangleResult",
    "TwoAtomEstimate",
    "atom_atom_new",
    "atom_atom_old",
    "two_atoms_one_cavity",
    "two_atoms_one_cavity_from_reflections",
]


@dataclass(frozen=True)
class TwoCavitySetup:
    """Two nodes of a chain: cavity parameters plus each MZI phase.

    The closed forms below are derived for perfectly mode-matched
    photons, so zeta = 1 is required on both cavities.
    """

    cavity_1: CavityParams
    cavity_2: CavityParams
    phi_1: float = 0.0
    phi_2: float = 0.0

    def __post_init__(self):
        if self.cavity_1.zeta != 1.0 or self.cavity_2.zeta != 1.0:
            raise ValueError("atom-atom closed forms require zeta = 1 on both cavities")


def _bell_new_core(r_c1, r_nc1, r_c2, r_nc2, phase):
    """Fidelity numerator and (unnormalized) herald weight; scalars or
    numpy arrays. phase is exp(i (phi_2 - phi_1)).

    The photon picks up (r_c - r_nc)/2 at whichever node it scatters
    from; the two heralded polarization outcomes have the same fidelity,
    numerator / weight. The herald probability is weight / 2.
    """
    g1 = 0.5 * (r_c1 - r_nc1)
    g2 = 0.5 * (r_c2 - r_nc2)
    weight = abs(g1) ** 2 + abs(g2) ** 2
    num = 0.5 * abs(g2 + g1 * phase) ** 2
    return num, weight


def _bell_old_core(r_c1, r_nc1, r_c2, r_nc2):
    """Numerators and branch weights of the prior scheme's two heralds.

    A branch's herald probability is its weight / 16 (the two weights
    sum to 16 for lossless reflections). Scalars or numpy arrays.
    """
    nn = r_nc2 * r_nc1
    nc = r_nc2 * r_c1
    cn = r_c2 * r_nc1
    cc = r_c2 * r_c1
    num_phi = 0.5 * abs(2.0 * nn + (nn + cc)) ** 2
    den_phi = (
        abs(2.0 * nn) ** 2
        + abs(nn + nc) ** 2
        + abs(nn + cn) ** 2
        + abs(nn + cc) ** 2
    )
    num_psi = 0.5 * abs((nn - nc) + (nn - cn)) ** 2
    den_psi = abs(nn - nc) ** 2 + abs(nn - cn) ** 2 + abs(nn - cc) ** 2
    return num_phi, den_phi, num_psi, den_psi


def atom_atom_new(setup: TwoCavitySetup) -> float:
    """Bell fidelity of the heralded two-node state, new scheme.

    Both polarization heralds give the same value, so a single number
    is returned. Identical cavities with equal interferometer phases
    give exactly 1: the protocol filters its own errors into heralded
    failures.
    """
    p1 = reflection_lossy(setup.cavity_1)
    p2 = reflection_lossy(setup.cavity_2)
    phase = cmath.exp(1j * (_reduce_phase(setup.phi_2) - _reduce_phase(setup.phi_1)))
    num, weight = _bell_new_core(p1.r_c, p1.r_nc, p2.r_c, p2.r_nc, phase)
    if 0.5 * weight < HERALD_TOL:
        raise NoHeraldError("r_c and r_nc (nearly) coincide at both nodes; nothing heralds")
    return num / weight


@dataclass(frozen=True)
class OldEntangleResult:
    """Both heralded branches of the prior scheme's two-node protocol.

    The sigma- herald targets (|00> + |11>)/sqrt(2), the sigma+ herald
    targets (|01> + |10>)/sqrt(2). Weights are the two branch
    probabilities normalized to sum to one.
    """

    phi_plus_fidelity: float
    psi_plus_fidelity: float
    phi_plus_weight: float
    psi_plus_weight: float

    @property
    def weighted_fidelity(self) -> float:
        return (
            self.phi_plus_weight * self.phi_plus_fidelity
            + self.psi_plus_weight * self.psi_plus_fidelity
        )


def atom_atom_old(setup: TwoCavitySetup) -> OldEntangleResult:
    """Bell fidelities of both heralds for the prior scheme."""
    p1 = reflection_lossy(setup.cavity_1)
    p2 = reflection_lossy(setup.cavity_2)
    num_phi, den_phi, num_psi, den_psi = _bell_old_core(p1.r_c, p1.r_nc, p2.r_c, p2.r_nc)
    total = den_phi + den_psi
    if total / 16.0 < HERALD_TOL:
        raise NoHeraldError("all branch amplitudes (nearly) vanish; nothing heralds")
    return OldEntangleResult(
        phi_plus_fidelity=float(num_phi / den_phi) if den_phi / 16.0 >= HERALD_TOL else 0.0,
        psi_plus_fidelity=float(num_psi / den_psi) if den_psi / 16.0 >= HERALD_TOL else 0.0,
        phi_plus_weight=float(den_phi / total),
        psi_plus_weight=float(den_psi / total),
    )


class TwoAtomEstimate(NamedTuple):
    fidelity: float
    p_loss: float


def two_atoms_one_cavity_from_reflections(refl: ReflectionPair, zeta: float) -> TwoAtomEstimate:
    """Heralded Bell fidelity and loss for two atoms sharing one cavity.

    A single photon reflects off a cavity holding both atoms (prepared
    so that three of the four joint states couple):

        p_loss = (zeta / 4) * (3 |t_c|^2 + |t_nc|^2)
        F = ((1 - zeta)/4 + zeta |(3 r_c - r_nc)/4|^2) / (1 - p_loss)
    """
    if not 0.0 <= zeta <= 1.0:
        raise ValueError("zeta must lie in [0, 1]")
    p_loss = 0.25 * zeta * (3.0 * refl.t_c_sq + refl.t_nc_sq)
    # 1 - p_loss as a sum of non-negative terms, which does not cancel
    survived = (1.0 - zeta) + 0.25 * zeta * (3.0 * abs(refl.r_c) ** 2 + abs(refl.r_nc) ** 2)
    if survived < HERALD_TOL:
        raise NoHeraldError("photon is always lost; nothing heralds")
    num = 0.25 * (1.0 - zeta) + zeta * abs(0.25 * (3.0 * refl.r_c - refl.r_nc)) ** 2
    return TwoAtomEstimate(fidelity=float(min(num / survived, 1.0)), p_loss=float(p_loss))


def two_atoms_one_cavity(p: CavityParams) -> TwoAtomEstimate:
    """Same as above, with reflections derived from cavity parameters."""
    return two_atoms_one_cavity_from_reflections(reflection_lossy(p), p.zeta)
