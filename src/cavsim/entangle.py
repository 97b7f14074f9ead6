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

from .analytic import NoHeraldError, _heralds, _reduce_phase, _unit_interval
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
    """Fidelity numerator and herald probability p of the two-node
    chain; scalars or numpy arrays. phase is exp(i (phi_2 - phi_1)).

    The photon picks up (r_c - r_nc)/2 at whichever node it scatters
    from. The chain heralds where _heralds(p), and both polarization
    heralds then have fidelity num / p.
    """
    g1 = 0.5 * (r_c1 - r_nc1)
    g2 = 0.5 * (r_c2 - r_nc2)
    p = 0.5 * (abs(g1) ** 2 + abs(g2) ** 2)
    num = 0.25 * abs(g2 + g1 * phase) ** 2
    return num, p


def _bell_old_core(r_c1, r_nc1, r_c2, r_nc2):
    """Fidelity numerator and herald probability of each of the prior
    scheme's two heralds, (num_phi, p_phi, num_psi, p_psi); scalars or
    numpy arrays. Each branch is its own herald: its fidelity is num / p
    where _heralds(p), and its num and p are 0 where not.
    """
    nn = r_nc2 * r_nc1
    nc = r_nc2 * r_c1
    cn = r_c2 * r_nc1
    cc = r_c2 * r_c1
    num_phi = 0.03125 * abs(2.0 * nn + (nn + cc)) ** 2
    p_phi = 0.0625 * (
        abs(2.0 * nn) ** 2
        + abs(nn + nc) ** 2
        + abs(nn + cn) ** 2
        + abs(nn + cc) ** 2
    )
    num_psi = 0.03125 * abs((nn - nc) + (nn - cn)) ** 2
    p_psi = 0.0625 * (abs(nn - nc) ** 2 + abs(nn - cn) ** 2 + abs(nn - cc) ** 2)
    h_phi, h_psi = _heralds(p_phi), _heralds(p_psi)
    return num_phi * h_phi, p_phi * h_phi, num_psi * h_psi, p_psi * h_psi


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
    num, p = _bell_new_core(p1.r_c, p1.r_nc, p2.r_c, p2.r_nc, phase)
    if not _heralds(p):
        raise NoHeraldError("r_c and r_nc (nearly) coincide at both nodes; nothing heralds")
    return _unit_interval(num / p)


@dataclass(frozen=True)
class OldEntangleResult:
    """Both heralded branches of the prior scheme's two-node protocol.

    The phi+ herald targets (|00> + |11>)/sqrt(2), the psi+ herald
    targets (|01> + |10>)/sqrt(2); for an H photon in the oracle's
    conventions they are its H and V outcomes. Weights are the heralded
    branches' probabilities normalized to sum to one; a branch that does
    not herald reports fidelity 0.0 and weight 0.0.
    """

    phi_plus_fidelity: float
    psi_plus_fidelity: float
    phi_plus_weight: float
    psi_plus_weight: float


def atom_atom_old(setup: TwoCavitySetup) -> OldEntangleResult:
    """Bell fidelities of both heralds for the prior scheme."""
    p1 = reflection_lossy(setup.cavity_1)
    p2 = reflection_lossy(setup.cavity_2)
    num_phi, p_phi, num_psi, p_psi = _bell_old_core(p1.r_c, p1.r_nc, p2.r_c, p2.r_nc)
    total = p_phi + p_psi  # 0 where no branch heralds: the kernel zeroes those
    if not _heralds(total):
        raise NoHeraldError("neither polarization branch heralds")
    fid_phi, fid_psi = (
        _unit_interval(num / p) if _heralds(p) else 0.0
        for num, p in ((num_phi, p_phi), (num_psi, p_psi))
    )
    return OldEntangleResult(
        phi_plus_fidelity=fid_phi,
        psi_plus_fidelity=fid_psi,
        phi_plus_weight=p_phi / total,
        psi_plus_weight=p_psi / total,
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
    if not _heralds(survived):
        raise NoHeraldError("photon is always lost; nothing heralds")
    num = 0.25 * (1.0 - zeta) + zeta * abs(0.25 * (3.0 * refl.r_c - refl.r_nc)) ** 2
    return TwoAtomEstimate(fidelity=_unit_interval(num / survived), p_loss=p_loss)


def two_atoms_one_cavity(p: CavityParams) -> TwoAtomEstimate:
    """Same as above, with reflections derived from cavity parameters."""
    return two_atoms_one_cavity_from_reflections(reflection_lossy(p), p.zeta)
