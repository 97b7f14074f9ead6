"""Brute-force optical-network oracle.

Every gate network is simulated by explicit amplitude bookkeeping over
optical basis labels

    (pol, path, mode, atom)            pol in {"H", "V"}

where `mode` is a tuple of matched/mismatched tags (one appended per
mode-mismatch split) and `atom` indexes the computational basis of all
atoms involved. Lost light leaves the network: the two lossy elements
(attenuator and cavity scattering) sum the amplitudes they remove
coherently per environment branch (sigma+/- crossed with the atomic
level for a scattering event, one per optical component for an
attenuator) and add their probability to the state's `discarded`. Lost
amplitudes never re-enter a path, so nothing else needs them. Every
element checks that the optical norm plus `discarded` stays at 1.

The linear elements (PBS, wave plates, phase, attenuator) are tables
that one loop, `_linear`, applies; cavity scattering has its own loop,
which reads the H/V <-> sigma+/- change of basis from one table,
`_SIGMA`, and the (sigma, atom bit) pairs that see r_c from another,
`_COUPLED`. Each loop builds the new dict in the order of the old one's
labels, skips each contribution that is zero, and adds those that land
on the same label coherently, so every sum over a state runs in one
fixed order; a label whose contributions cancel to exactly 0j stays.

None of this shares code with the closed forms in `analytic`, so the
agreement tests between the two are a genuine cross-check.

Polarization conventions:

* PBS transmits H and reflects V; modeled as pure relabeling of the
  path. Absolute element phases are dropped (only phase differences
  are observable; the interferometer phase is explicit).
* HWP swaps H and V.
* QWP maps H -> (V - H)/sqrt(2), V -> (V + H)/sqrt(2).
* sigma+/- = (H +/- V)/sqrt(2).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .analytic import HERALD_TOL, GateResult, JointState, _heralds, _reduce_phase
from .cavity import ReflectionPair

__all__ = [
    "NetworkState",
    "prepare_photon_atom",
    "apply_pbs",
    "apply_hwp",
    "apply_qwp",
    "apply_phase",
    "apply_attenuator",
    "apply_scattering",
    "herald",
    "measure_polarization",
    "fidelity_against",
    "run_cz_new",
    "run_cz_old",
    "run_remote_new",
    "RemoteEntangleResult",
]

CONSERVATION_TOL = 1e-12

_SQRT_HALF = 1.0 / math.sqrt(2.0)

# <sigma|pol> for sigma = 0 (sigma+), 1 (sigma-): real and symmetric, so
# the same table takes sigma back to H/V, <pol|sigma> = <sigma|pol>.
_SIGMA = {"H": (_SQRT_HALF, _SQRT_HALF), "V": (_SQRT_HALF, -_SQRT_HALF)}

# the (sigma, atom bit) pairs that see r_c under each coupling; the rest see r_nc
_COUPLED = {"degenerate": ((0, 0), (1, 1)), "single": ((0, 1),)}


@dataclass
class NetworkState:
    """Optical amplitudes over the labels above plus the lost probability."""

    amps: dict
    discarded: float = 0.0

    def norm_sq(self) -> float:
        # a list, not a generator, and x * x, not x ** 2: the faster forms
        return sum([x * x for x in map(abs, self.amps.values())])

    def conservation_defect(self) -> float:
        return abs(self.norm_sq() + self.discarded - 1.0)


def _check_norms(p_norm: float, a_norm: float) -> None:
    """Refuse a photon or atom norm off 1 by more than 1e-12, or a product
    state norm off by more than CONSERVATION_TOL."""
    # each check is written so that a NaN fails it
    if not (abs(p_norm - 1.0) <= 1e-12 and abs(a_norm - 1.0) <= 1e-12):
        raise ValueError("photon and atom amplitudes must each be normalized")
    if not (defect := abs(p_norm * a_norm - 1.0)) <= CONSERVATION_TOL:
        raise ValueError(f"product state norm is off by {defect:.3e} > CONSERVATION_TOL")


def prepare_photon_atom(photon: dict, atom) -> NetworkState:
    """Product state of one photon (H/V amplitudes) on path "in" and n
    atom qubits.

    `atom` is the joint atomic amplitude vector of length 2**n.
    """
    _check_norms(sum(abs(v) ** 2 for v in photon.values()), sum(abs(v) ** 2 for v in atom))
    dim = len(atom)
    if dim & (dim - 1) or dim == 0:
        raise ValueError("atomic vector length must be a power of two")
    amps = {}
    for pol, pv in photon.items():
        if pol not in ("H", "V"):
            raise ValueError(f"unknown polarization label {pol!r}")
        for idx, av in enumerate(atom):
            a = complex(pv) * complex(av)
            if a != 0j:
                amps[(pol, "in", (), idx)] = a
    return NetworkState(amps)


def _with_amps(state: NetworkState, amps: dict, lost=()) -> NetworkState:
    """An element's output, checked: `amps`, and the input's discard plus
    the probability of the amplitudes the element removed (`lost`)."""
    out = NetworkState(amps, state.discarded + sum([abs(a) ** 2 for a in lost]))
    if not (defect := out.conservation_defect()) <= CONSERVATION_TOL:  # NaN fails
        raise RuntimeError(f"probability bookkeeping violated: defect {defect:.3e}")
    return out


def _linear(state: NetworkState, path: str, rule: dict, loss: float = 0.0) -> NetworkState:
    """Apply a linear optical element to one path.

    `rule[pol]` lists the `(pol, path, factor)` outputs of each
    polarization on `path`; mode and atom are kept, and other paths pass
    unchanged. Each component on `path` also sends `loss` times its
    amplitude into its own loss branch.
    """
    out = {}
    lost = []
    for lbl, a in state.amps.items():
        if lbl[1] == path:
            if loss:
                lost.append(a * loss)
            for pol, pth, factor in rule[lbl[0]]:
                na = a * factor
                if na != 0j:
                    key = (pol, pth, lbl[2], lbl[3])
                    out[key] = out.get(key, 0j) + na
        elif a != 0j:  # an output path may already carry the label
            out[lbl] = out.get(lbl, 0j) + a
    return _with_amps(state, out, lost)


def apply_pbs(state: NetworkState, in_path: str, h_path: str, v_path: str) -> NetworkState:
    """Route H on in_path to h_path and V to v_path."""
    return _linear(state, in_path, {"H": (("H", h_path, 1.0),), "V": (("V", v_path, 1.0),)})


def apply_hwp(state: NetworkState, path: str) -> NetworkState:
    """Swap H and V on one path."""
    return _linear(state, path, {"H": (("V", path, 1.0),), "V": (("H", path, 1.0),)})


def apply_qwp(state: NetworkState, path: str) -> NetworkState:
    """H -> (V - H)/sqrt(2), V -> (V + H)/sqrt(2) on one path."""
    return _linear(state, path, {
        "H": (("H", path, -_SQRT_HALF), ("V", path, _SQRT_HALF)),
        "V": (("H", path, _SQRT_HALF), ("V", path, _SQRT_HALF)),
    })


def apply_phase(state: NetworkState, path: str, phi: float) -> NetworkState:
    """Multiply every amplitude on path by exp(i phi)."""
    factor = cmath.exp(1j * _reduce_phase(phi))
    return _linear(state, path, {"H": (("H", path, factor),), "V": (("V", path, factor),)})


def apply_attenuator(state: NetworkState, path: str, amplitude: float) -> NetworkState:
    """Attenuate one path; the removed weight is discarded."""
    if not 0.0 <= amplitude <= 1.0:
        raise ValueError("attenuator amplitude must lie in [0, 1]")
    kept = {"H": (("H", path, amplitude),), "V": (("V", path, amplitude),)}
    return _linear(state, path, kept, math.sqrt(1.0 - amplitude * amplitude))


def apply_scattering(
    state: NetworkState,
    path: str,
    refl: ReflectionPair,
    zeta: float = 1.0,
    theta: float = 0.0,
    coupling: str = "degenerate",
    atom_bit: int = 0,
) -> NetworkState:
    """Reflect one path off an atom-cavity system.

    For zeta < 1 the entire optical state is first split into a matched
    part (factor sqrt(zeta)) and a fresh mismatched mode (factor
    sqrt(1-zeta) * exp(i theta)); only the matched part on `path`
    scatters, the mismatched part reflects unchanged. Scattering sends
    each sigma component to r * sigma plus sqrt(1-|r|^2) into its own
    loss branch (sigma, mode, atom), which H and V feed coherently and
    which is discarded; r is picked by the coupling map, `_COUPLED`:

    * "degenerate": sigma+ with atom |0> and sigma- with atom |1> see
      r_c; the cross combinations see r_nc (the MZI gate's cavity).
    * "single": only sigma+ with atom |1> sees r_c (the prior scheme).

    atom_bit selects which atomic qubit sits in this cavity when the
    state carries more than one.
    """
    if coupling not in _COUPLED:  # checked before zeta
        raise ValueError(f"unknown coupling {coupling!r}")
    if not 0.0 <= zeta <= 1.0:
        raise ValueError("zeta must lie in [0, 1]")
    coupled = _COUPLED[coupling]
    t_c = math.sqrt(refl.t_c_sq)
    t_nc = math.sqrt(refl.t_nc_sq)
    split = zeta < 1.0
    w_match = math.sqrt(zeta)
    w_mis = math.sqrt(1.0 - zeta) * cmath.exp(1j * _reduce_phase(theta))
    out = {}
    lost = {}
    for (pol, pth, mode, atom), a in state.amps.items():
        if split:
            parts = ((mode + ("m",), a * w_match, pth == path), (mode + ("x",), a * w_mis, False))
        else:
            parts = ((mode, a, pth == path),)
        bit = (atom >> atom_bit) & 1
        for md, amp, hits_cavity in parts:
            if not hits_cavity:
                if amp != 0j:
                    out[pol, pth, md, atom] = out.get((pol, pth, md, atom), 0j) + amp
                continue
            for sigma in (0, 1):
                cs = _SIGMA[pol][sigma] * amp
                r, t = (refl.r_c, t_c) if (sigma, bit) in coupled else (refl.r_nc, t_nc)
                if r != 0:
                    for back in ("H", "V"):
                        if (na := cs * r * _SIGMA[back][sigma]) != 0j:
                            out[back, pth, md, atom] = out.get((back, pth, md, atom), 0j) + na
                lost[sigma, md, atom] = lost.get((sigma, md, atom), 0j) + cs * t
    return _with_amps(state, out, lost.values())


def _project(kept: dict):
    """(kept amplitudes renormalized, their probability); None for the state where
    _heralds(probability) fails. measure_polarization's is conditional on the herald."""
    prob = sum([abs(a) ** 2 for a in kept.values()])
    if not _heralds(prob):
        return None, prob
    scale = 1.0 / math.sqrt(prob)
    return NetworkState({lbl: a * scale for lbl, a in kept.items()}), prob


def herald(state: NetworkState, paths):
    """Detect the photon on the given paths.

    Returns (the detected amplitudes renormalized, their probability);
    the state is None when the probability is below HERALD_TOL (no
    herald). The returned state starts with nothing discarded.
    """
    paths = set(paths)
    return _project({lbl: a for lbl, a in state.amps.items() if lbl[1] in paths})


def measure_polarization(state: NetworkState, path: str, pol: str):
    """Project a (heralded) state onto one polarization outcome."""
    return _project({
        lbl: a for lbl, a in state.amps.items() if lbl[1] == path and lbl[0] == pol
    })


def fidelity_against(state: NetworkState, ideal: dict, path: str) -> float:
    """Overlap with an ideal (pol, atom) -> amplitude state on one path.

    The spatial-mode sectors are traced over: the overlap is taken
    within each mode and the squared magnitudes added, as appropriate
    for a detector that resolves the spatial mode but not the sectors'
    relative phase.
    """
    by_mode: dict = {}
    for (pol, pth, mode, atom), a in state.amps.items():
        if pth != path:
            continue
        ref = ideal.get((pol, atom))
        if ref is not None:
            by_mode[mode] = by_mode.get(mode, 0j) + ref.conjugate() * a
    return sum([abs(v) ** 2 for v in by_mode.values()])


# ---------------------------------------------------------------------------
# full networks
# ---------------------------------------------------------------------------


def _cz_new_network(
    state: NetworkState,
    in_path: str,
    prefix: str,
    refl: ReflectionPair,
    zeta: float,
    theta: float,
    phi: float,
    atom_bit: int,
    v_attenuation: float,
):
    """MZI gate: PBS split, cavity arm scattering, HWP, recombine.

    Returns (state, out_path, reject_path). The reject path carries the
    polarization-unflipped (and mismatched) H light that the output PBS
    turns away; it stays in the state until a later herald discards it.
    """
    cav = prefix + "cav"
    byp = prefix + "byp"
    down = prefix + "down"
    rej = prefix + "rej"
    out = prefix + "out"
    st = apply_pbs(state, in_path, cav, byp)
    st = apply_phase(st, byp, phi)
    if v_attenuation != 1.0:
        st = apply_attenuator(st, byp, v_attenuation)
    st = apply_scattering(st, cav, refl, zeta, theta, "degenerate", atom_bit)
    st = apply_pbs(st, cav, rej, down)
    st = apply_hwp(st, down)
    st = apply_pbs(st, down, out, prefix + "stray_v")
    st = apply_pbs(st, byp, prefix + "stray_h", out)
    return st, out, rej


def run_cz_new(
    refl: ReflectionPair,
    zeta: float,
    state: JointState,
    phi: float = 0.0,
    theta: float = 0.0,
    v_attenuation: float = 1.0,
) -> GateResult:
    """Full network evaluation of the MZI gate; mirrors cz_new."""
    st = prepare_photon_atom(
        {"H": state.beta_p, "V": state.alpha_p}, (state.alpha, state.beta)
    )
    st, out, rej = _cz_new_network(st, "in", "", refl, zeta, theta, phi, 0, v_attenuation)
    p_loss = st.discarded
    p_rej = sum([abs(a) ** 2 for lbl, a in st.amps.items() if lbl[1] == rej])
    survived = st.norm_sq()
    p_h = p_rej / survived if _heralds(survived) else 0.0
    heralded, p_succ = herald(st, {out})
    if heralded is None:
        return GateResult(None, p_succ, p_loss, p_h, no_herald=True)
    ideal = {
        ("V", 0): state.alpha_p * state.alpha,
        ("V", 1): state.alpha_p * state.beta,
        ("H", 0): state.beta_p * state.alpha,
        ("H", 1): -state.beta_p * state.beta,
    }
    fid = fidelity_against(heralded, ideal, out)
    v_amp, h_amp = (
        math.sqrt(sum([abs(a) ** 2 for lbl, a in heralded.amps.items() if lbl[0] == pol]))
        for pol in ("V", "H")
    )
    return GateResult(fid, p_succ, p_loss, p_h, v_amp, h_amp)


def run_cz_old(
    refl: ReflectionPair, zeta: float, state: JointState, theta: float = 0.0
) -> GateResult:
    """Full network evaluation of the bare-reflection gate.

    The photonic qubit lives in the circular basis: alpha_p on sigma-,
    beta_p on sigma+. Detection is simply the photon coming back.
    """
    h0 = (state.alpha_p + state.beta_p) * _SQRT_HALF
    v0 = (state.beta_p - state.alpha_p) * _SQRT_HALF
    st = prepare_photon_atom({"H": h0, "V": v0}, (state.alpha, state.beta))
    st = apply_scattering(st, "in", refl, zeta, theta, "single", 0)
    p_loss = st.discarded
    heralded, p_succ = herald(st, {"in"})
    if heralded is None:
        return GateResult(None, p_succ, p_loss, 0.0, no_herald=True)
    ap, bp = state.alpha_p, state.beta_p
    ideal = {
        ("H", 0): (ap + bp) * state.alpha * _SQRT_HALF,
        ("H", 1): (ap - bp) * state.beta * _SQRT_HALF,
        ("V", 0): (bp - ap) * state.alpha * _SQRT_HALF,
        ("V", 1): -(ap + bp) * state.beta * _SQRT_HALF,
    }
    fid = fidelity_against(heralded, ideal, "in")
    return GateResult(fid, p_succ, p_loss, 0.0)


@dataclass(frozen=True)
class RemoteEntangleResult:
    """Two-node entanglement run: one gate per node, photon measured.

    fidelity_v/fidelity_h are the Bell fidelities of the two heralded
    branches (V targets (|00> + |11>)/sqrt(2), H targets
    (|01> + |10>)/sqrt(2)); prob_v/prob_h are their absolute
    probabilities, and herald_probability is the detection probability
    p_det (prob_v + prob_h only where both herald). A branch that does not
    herald reports fidelity 0.0 and probability 0.0. On a no-herald run,
    as for run_cz_*, both fidelities are None and no_herald is set.
    """

    fidelity_v: float | None
    fidelity_h: float | None
    prob_v: float
    prob_h: float
    herald_probability: float
    no_herald: bool = False


def run_remote_new(
    refl_1: ReflectionPair,
    refl_2: ReflectionPair,
    phi_1: float = 0.0,
    phi_2: float = 0.0,
) -> RemoteEntangleResult:
    """Chain two MZI gates to entangle two remote atoms.

    A sigma+ photon interacts with atom 1 (prepared in (|0>+|1>)/sqrt(2)),
    passes an HWP, interacts with atom 2 (prepared in (|0>-|1>)/sqrt(2)),
    then goes through a QWP and a polarization measurement. Atom index
    = (atom1 << 1) | atom2. Mode matching is perfect here; mismatched
    chains can be composed from the element functions directly.
    """
    half = 0.5
    atoms = (half, -half, half, -half)  # (|0>+|1>)(|0>-|1>)/2
    st = prepare_photon_atom({"H": _SQRT_HALF, "V": _SQRT_HALF}, atoms)
    st, out1, _ = _cz_new_network(st, "in", "n1_", refl_1, 1.0, 0.0, phi_1, 1, 1.0)
    st = apply_hwp(st, out1)
    st, out2, _ = _cz_new_network(st, out1, "n2_", refl_2, 1.0, 0.0, phi_2, 0, 1.0)
    st = apply_qwp(st, out2)
    heralded, p_det = herald(st, {out2})
    if heralded is None:
        return RemoteEntangleResult(None, None, 0.0, 0.0, p_det, no_herald=True)
    fid, prob = {}, {}
    for pol, targets in (("V", (0, 3)), ("H", (1, 2))):  # the Bell target's atom indices
        fid[pol] = prob[pol] = 0.0
        st_pol, p_pol = measure_polarization(heralded, out2, pol)
        if st_pol is not None:
            bell = {(pol, idx): _SQRT_HALF for idx in targets}
            fid[pol] = fidelity_against(st_pol, bell, out2)
            prob[pol] = p_det * p_pol
    return RemoteEntangleResult(fid["V"], fid["H"], prob["V"], prob["H"], p_det)
