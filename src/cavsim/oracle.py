"""Brute-force optical-network oracle.

Every gate network is simulated by explicit amplitude bookkeeping over
basis labels

    ("opt", pol, path, mode, atom)            pol in {"H", "V"}
    ("loss", event, branch, mode, atom)       one label per loss branch

where `mode` is a tuple of matched/mismatched tags (one appended per
mode-mismatch split) and `atom` indexes the computational basis of all
atoms involved. Loss labels are orthogonal environment states: each
scattering event opens four of them (sigma+/- crossed with the two
atomic levels), an attenuator opens one per optical component. Loss
amplitudes never re-enter an optical path, and the squared norm of the
full vector plus the accumulated discard stays at 1 after every
element; runners check this at each step.

Each element is one direct loop (a dict comprehension where it only
relabels or rephases) over the amplitude dict. It builds the new dict
in the order of the old one's labels, drops zero amplitudes, and adds
amplitudes that land on the same label coherently, so every sum over a
state runs in one fixed order.

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

from .analytic import HERALD_TOL, GateResult, JointState, _reduce_phase
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

# H/V decomposition onto (sigma+, sigma-) and back.
_POL_TO_SIGMA = {"H": (_SQRT_HALF, _SQRT_HALF), "V": (_SQRT_HALF, -_SQRT_HALF)}
_SIGMA_TO_POL = ({"H": _SQRT_HALF, "V": _SQRT_HALF}, {"H": _SQRT_HALF, "V": -_SQRT_HALF})


@dataclass
class NetworkState:
    """Amplitude vector over the labels above plus a discard scalar."""

    atom_dim: int
    amps: dict
    discarded: float = 0.0
    events: int = 0

    def norm_sq(self) -> float:
        # a list, not a generator: the same sum in the same order, faster
        return sum([abs(a) ** 2 for a in self.amps.values()])

    def optical_norm_sq(self) -> float:
        return sum(abs(a) ** 2 for lbl, a in self.amps.items() if lbl[0] == "opt")

    def loss_norm_sq(self) -> float:
        return sum(abs(a) ** 2 for lbl, a in self.amps.items() if lbl[0] == "loss")

    def conservation_defect(self) -> float:
        return abs(self.norm_sq() + self.discarded - 1.0)


def _check(state: NetworkState) -> NetworkState:
    if state.conservation_defect() > CONSERVATION_TOL:
        raise RuntimeError(
            f"probability bookkeeping violated: defect {state.conservation_defect():.3e}"
        )
    return state


def prepare_photon_atom(photon: dict, atom) -> NetworkState:
    """Product state of one photon (H/V amplitudes) on path "in" and n
    atom qubits.

    `atom` is the joint atomic amplitude vector of length 2**n.
    """
    p_norm = sum(abs(v) ** 2 for v in photon.values())
    a_norm = sum(abs(v) ** 2 for v in atom)
    if abs(p_norm - 1.0) > 1e-12 or abs(a_norm - 1.0) > 1e-12:
        raise ValueError("photon and atom amplitudes must each be normalized")
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
                amps[("opt", pol, "in", (), idx)] = a
    return NetworkState(atom_dim=dim, amps=amps)


def _with_amps(state: NetworkState, amps: dict, events: int | None = None) -> NetworkState:
    return NetworkState(
        atom_dim=state.atom_dim,
        amps=amps,
        discarded=state.discarded,
        events=state.events if events is None else events,
    )


def apply_pbs(state: NetworkState, in_path: str, h_path: str, v_path: str) -> NetworkState:
    """Route H on in_path to h_path and V to v_path."""
    out = {}
    for lbl, a in state.amps.items():
        if lbl[0] == "opt" and lbl[2] == in_path:
            _, pol, _, mode, atom = lbl
            lbl = ("opt", pol, h_path if pol == "H" else v_path, mode, atom)
        if a != 0j:  # h_path or v_path may already carry the label
            out[lbl] = out.get(lbl, 0j) + a
    return _with_amps(state, out)


def apply_hwp(state: NetworkState, path: str) -> NetworkState:
    """Swap H and V on one path."""
    return _with_amps(state, {
        ("opt", "V" if lbl[1] == "H" else "H", path, lbl[3], lbl[4])
        if lbl[0] == "opt" and lbl[2] == path else lbl: a
        for lbl, a in state.amps.items() if a != 0j
    })


def apply_qwp(state: NetworkState, path: str) -> NetworkState:
    """H -> (V - H)/sqrt(2), V -> (V + H)/sqrt(2) on one path."""
    out = {}
    for lbl, a in state.amps.items():
        if lbl[0] == "opt" and lbl[2] == path:
            _, pol, _, mode, atom = lbl
            sign = -1.0 if pol == "H" else 1.0
            for nl, na in (
                (("opt", "H", path, mode, atom), a * sign * _SQRT_HALF),
                (("opt", "V", path, mode, atom), a * _SQRT_HALF),
            ):
                if na != 0j:
                    out[nl] = out.get(nl, 0j) + na
        elif a != 0j:
            out[lbl] = out.get(lbl, 0j) + a
    return _with_amps(state, out)


def apply_phase(state: NetworkState, path: str, phi: float) -> NetworkState:
    """Multiply every optical amplitude on path by exp(i phi)."""
    factor = cmath.exp(1j * _reduce_phase(phi))
    return _with_amps(state, {
        lbl: a * factor if lbl[0] == "opt" and lbl[2] == path else a
        for lbl, a in state.amps.items() if a != 0j
    })


def apply_attenuator(state: NetworkState, path: str, amplitude: float) -> NetworkState:
    """Attenuate one path, routing the removed weight to loss labels."""
    if not 0.0 <= amplitude <= 1.0:
        raise ValueError("attenuator amplitude must lie in [0, 1]")
    event = state.events
    t = math.sqrt(max(0.0, 1.0 - amplitude * amplitude))
    out = {}
    for lbl, a in state.amps.items():
        if lbl[0] == "opt" and lbl[2] == path:
            _, pol, _, mode, atom = lbl
            pairs = ((lbl, a * amplitude), (("loss", event, ("att", pol), mode, atom), a * t))
        else:
            pairs = ((lbl, a),)
        for nl, na in pairs:
            if na != 0j:
                out[nl] = out.get(nl, 0j) + na
    return _with_amps(state, out, events=event + 1)


def _coupled(coupling: str, sigma: int, bit: int) -> bool:
    # sigma: 0 for sigma+, 1 for sigma-.
    if coupling == "degenerate":
        return sigma == bit
    if coupling == "single":
        return sigma == 0 and bit == 1
    raise ValueError(f"unknown coupling {coupling!r}")


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
    loss branch, with r picked by the coupling map:

    * "degenerate": sigma+ with atom |0> and sigma- with atom |1> see
      r_c; the cross combinations see r_nc (the MZI gate's cavity).
    * "single": only sigma+ with atom |1> sees r_c (the prior scheme).

    atom_bit selects which atomic qubit sits in this cavity when the
    state carries more than one.
    """
    t_c = math.sqrt(refl.t_c_sq)
    t_nc = math.sqrt(refl.t_nc_sq)
    # the (reflection, loss) amplitudes that each (sigma, atom bit) sees;
    # this validates the coupling name first
    seen = {
        (sigma, bit): (refl.r_c, t_c) if _coupled(coupling, sigma, bit) else (refl.r_nc, t_nc)
        for sigma in (0, 1)
        for bit in (0, 1)
    }
    if not 0.0 <= zeta <= 1.0:
        raise ValueError("zeta must lie in [0, 1]")
    event = state.events
    split = zeta < 1.0
    w_match = math.sqrt(zeta)
    w_mis = math.sqrt(1.0 - zeta) * cmath.exp(1j * _reduce_phase(theta))
    out = {}
    for lbl, a in state.amps.items():
        if lbl[0] == "loss":
            if a != 0j:
                out[lbl] = out.get(lbl, 0j) + a
            continue
        _, pol, pth, mode, atom = lbl
        if split:
            parts = ((mode + ("m",), a * w_match, pth == path), (mode + ("x",), a * w_mis, False))
        else:
            parts = ((mode, a, pth == path),)
        bit = (atom >> atom_bit) & 1
        for md, amp, hits_cavity in parts:
            if not hits_cavity:
                pairs = [(("opt", pol, pth, md, atom), amp)]
            else:
                pairs = []
                for sigma in (0, 1):
                    cs = _POL_TO_SIGMA[pol][sigma] * amp
                    r, t = seen[sigma, bit]
                    if r != 0:
                        back = _SIGMA_TO_POL[sigma]
                        pairs.append((("opt", "H", pth, md, atom), cs * r * back["H"]))
                        pairs.append((("opt", "V", pth, md, atom), cs * r * back["V"]))
                    if t != 0:
                        pairs.append((("loss", event, (sigma, bit), md, atom), cs * t))
            for nl, na in pairs:
                if na != 0j:
                    out[nl] = out.get(nl, 0j) + na
    return _with_amps(state, out, events=event + 1)


def _project(state: NetworkState, kept: dict):
    """(kept amplitudes renormalized, their probability); None for the
    state when the probability is below HERALD_TOL."""
    prob = sum(abs(a) ** 2 for a in kept.values())
    if prob < HERALD_TOL:
        return None, prob
    scale = 1.0 / math.sqrt(prob)
    amps = {lbl: a * scale for lbl, a in kept.items()}
    return NetworkState(atom_dim=state.atom_dim, amps=amps, events=state.events), prob


def herald(state: NetworkState, paths):
    """Project onto the optical amplitudes on the given paths.

    Returns (renormalized state, detection probability); the state is
    None when the probability is below HERALD_TOL (no herald).
    Everything not detected moves into the discard scalar.
    """
    paths = set(paths)
    return _project(
        state, {lbl: a for lbl, a in state.amps.items() if lbl[0] == "opt" and lbl[2] in paths}
    )


def measure_polarization(state: NetworkState, path: str, pol: str):
    """Project a (heralded) state onto one polarization outcome."""
    return _project(state, {
        lbl: a for lbl, a in state.amps.items()
        if lbl[0] == "opt" and lbl[2] == path and lbl[1] == pol
    })


def fidelity_against(state: NetworkState, ideal: dict, path: str) -> float:
    """Overlap with an ideal (pol, atom) -> amplitude state on one path.

    The spatial-mode sectors are traced over: the overlap is taken
    within each mode and the squared magnitudes added, as appropriate
    for a detector that resolves the spatial mode but not the sectors'
    relative phase.
    """
    by_mode: dict = {}
    for lbl, a in state.amps.items():
        if lbl[0] != "opt" or lbl[2] != path:
            continue
        _, pol, _, mode, atom = lbl
        ref = ideal.get((pol, atom))
        if ref is not None:
            by_mode[mode] = by_mode.get(mode, 0j) + ref.conjugate() * a
    return sum(abs(v) ** 2 for v in by_mode.values())


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
    st = _check(apply_pbs(state, in_path, cav, byp))
    st = _check(apply_phase(st, byp, phi))
    if v_attenuation != 1.0:
        st = _check(apply_attenuator(st, byp, v_attenuation))
    st = _check(apply_scattering(st, cav, refl, zeta, theta, "degenerate", atom_bit))
    st = _check(apply_pbs(st, cav, rej, down))
    st = _check(apply_hwp(st, down))
    st = _check(apply_pbs(st, down, out, prefix + "stray_v"))
    st = _check(apply_pbs(st, byp, prefix + "stray_h", out))
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
    p_loss = st.loss_norm_sq()
    p_rej = sum(
        abs(a) ** 2 for lbl, a in st.amps.items() if lbl[0] == "opt" and lbl[2] == rej
    )
    survived = 1.0 - p_loss
    p_h = p_rej / survived if survived > HERALD_TOL else 0.0
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
    v_amp, h_amp = (  # a heralded state holds optical labels only
        math.sqrt(sum(abs(a) ** 2 for lbl, a in heralded.amps.items() if lbl[1] == pol))
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
    st = _check(apply_scattering(st, "in", refl, zeta, theta, "single", 0))
    p_loss = st.loss_norm_sq()
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
    probabilities and herald_probability their sum. On a no-herald run,
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
    st = _check(apply_hwp(st, out1))
    st, out2, _ = _cz_new_network(st, out1, "n2_", refl_2, 1.0, 0.0, phi_2, 0, 1.0)
    st = _check(apply_qwp(st, out2))
    heralded, p_det = herald(st, {out2})
    if heralded is None:
        return RemoteEntangleResult(None, None, 0.0, 0.0, p_det, no_herald=True)
    fid_v = prob_v = fid_h = prob_h = 0.0
    st_v, pv = measure_polarization(heralded, out2, "V")
    if st_v is not None:
        bell_v = {("V", 0): _SQRT_HALF, ("V", 3): _SQRT_HALF}
        fid_v = fidelity_against(st_v, bell_v, out2)
        prob_v = p_det * pv
    st_h, ph = measure_polarization(heralded, out2, "H")
    if st_h is not None:
        bell_h = {("H", 1): _SQRT_HALF, ("H", 2): _SQRT_HALF}
        fid_h = fidelity_against(st_h, bell_h, out2)
        prob_h = p_det * ph
    return RemoteEntangleResult(fid_v, fid_h, prob_v, prob_h, p_det)
