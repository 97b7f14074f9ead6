"""Closed-form gate fidelity and success probability for both schemes.

The "new" scheme routes the H polarization component through the cavity
arm of a Mach-Zehnder interferometer (PBS + HWP); a photon that comes
back with its polarization unflipped is rejected by the output port, so
part of the error budget is converted into a heralded failure. The
"old" scheme reflects the photon straight off the cavity with no
interferometer and no polarization herald.

Fidelities are heralded-state fidelities: conditioned on the photon
being detected, with losses and (for the new scheme) polarization
rejects removed and the state renormalized. Mode-mismatched light is
kept in an orthogonal spatial sector and traced over; it degrades the
fidelity without interfering with the matched sector.
"""

from __future__ import annotations

import math
import cmath
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cavity import CavityParams, ReflectionPair, reflection_lossy

__all__ = [
    "JointState",
    "GateResult",
    "NoHeraldError",
    "cz_new",
    "cz_new_from_reflections",
    "cz_old",
    "cz_old_from_reflections",
    "avg_fidelity_new",
    "avg_fidelity_old",
    "avg_success",
]

# The one no-herald rule of the package: an outcome whose herald
# (detection) probability is below HERALD_TOL does not herald, and its
# fidelity is undefined. It applies to probabilities, never to
# unnormalized weights.
HERALD_TOL = 1e-12

_QUAD_TOL = 1e-8
_QUAD_MAX_ORDER = 4096


class NoHeraldError(RuntimeError):
    """Raised when a heralded quantity is requested but nothing heralds."""


@dataclass(frozen=True)
class JointState:
    """Product input state (photon qubit) x (atom qubit).

    alpha_p/beta_p are the photon amplitudes: V/H for the new scheme,
    sigma-/sigma+ for the old one. alpha/beta are the atomic qubit
    amplitudes on |0> and |1>.
    """

    alpha_p: complex
    beta_p: complex
    alpha: complex
    beta: complex

    def __post_init__(self):
        ph = abs(self.alpha_p) ** 2 + abs(self.beta_p) ** 2
        at = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(ph - 1.0) > 1e-12 or abs(at - 1.0) > 1e-12:
            raise ValueError("photon and atom amplitudes must each be normalized")

    @classmethod
    def equal_superposition(cls) -> "JointState":
        s = 1.0 / math.sqrt(2.0)
        return cls(s, s, s, s)


@dataclass(frozen=True)
class GateResult:
    """Outcome of one gate evaluation.

    p_loss is the probability that the photon is lost before any
    detection (cavity/mirror loss, plus deliberate attenuation when a
    balancing attenuator is inserted). p_h_reject is the probability,
    conditioned on no loss, that the new scheme's output port rejects
    the photon; it is zero for the old scheme. success_probability =
    (1 - p_loss) * (1 - p_h_reject).

    v_amplitude/h_amplitude describe the heralded output state of the
    new scheme: the moduli of the coefficients on the orthonormal
    branches |V>(alpha|0> + beta|1>) and |H>(alpha|0> - beta|1>). They
    are None for the old scheme. On a no-herald outcome the fidelity
    and amplitudes are None and no_herald is set.
    """

    fidelity: float | None
    success_probability: float
    p_loss: float
    p_h_reject: float
    v_amplitude: float | None = None
    h_amplitude: float | None = None
    no_herald: bool = False


def _reduce_phase(phi: float) -> float:
    # IEEE remainder keeps phi + 2*pi*k exactly periodic whenever the
    # caller's addition was exact.
    return math.remainder(float(phi), math.tau)


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


# ---------------------------------------------------------------------------
# new scheme (MZI + polarization herald)
# ---------------------------------------------------------------------------


def _new_core(r_c, r_nc, zeta, a2, b2, phase, att):
    """Shared kernel; works elementwise on numpy arrays.

    Returns (fidelity numerator, success, p_loss, raw H probability,
    survival 1 - p_loss). Fidelity = numerator / success where success
    is nonzero.
    """
    g = 0.5 * (r_c - r_nc)
    t_sum = (1.0 - np.abs(r_c) ** 2) + (1.0 - np.abs(r_nc) ** 2)
    p_loss = (1.0 - att * att) * a2 + zeta * 0.5 * b2 * t_sum
    nl2 = 1.0 - p_loss
    raw_h = (1.0 - zeta) * b2 + zeta * 0.25 * b2 * np.abs(r_c + r_nc) ** 2
    success = nl2 - raw_h
    num = (1.0 - zeta) * (att * a2) ** 2 + zeta * np.abs(att * a2 * phase + g * b2) ** 2
    return num, success, p_loss, raw_h, nl2


def cz_new_from_reflections(
    refl: ReflectionPair,
    zeta: float,
    state: JointState,
    phi: float = 0.0,
    v_attenuation: float = 1.0,
) -> GateResult:
    """Evaluate the MZI gate from explicit reflection amplitudes.

    phi is the interferometer phase difference (bypass arm relative to
    the cavity arm). v_attenuation < 1 models a deliberate amplitude
    attenuator in the bypass arm (loss balancing).
    """
    if not 0.0 <= zeta <= 1.0:
        raise ValueError("zeta must lie in [0, 1]")
    if not 0.0 <= v_attenuation <= 1.0:
        raise ValueError("v_attenuation must lie in [0, 1]")
    a2 = abs(state.alpha_p) ** 2
    b2 = abs(state.beta_p) ** 2
    phase = cmath.exp(1j * _reduce_phase(phi))
    num, success, p_loss, raw_h, nl2 = _new_core(
        refl.r_c, refl.r_nc, zeta, a2, b2, phase, v_attenuation
    )
    p_h = float(raw_h / nl2) if nl2 > HERALD_TOL else 0.0
    if success < HERALD_TOL:
        return GateResult(None, float(max(success, 0.0)), float(p_loss), p_h, no_herald=True)
    g = 0.5 * (refl.r_c - refl.r_nc)
    v_amp = math.sqrt((v_attenuation**2) * a2 / success)
    h_amp = math.sqrt(zeta * abs(g) ** 2 * b2 / success)
    return GateResult(
        fidelity=_clamp01(float(num / success)),
        success_probability=float(success),
        p_loss=float(p_loss),
        p_h_reject=p_h,
        v_amplitude=v_amp,
        h_amplitude=h_amp,
    )


def cz_new(
    p: CavityParams,
    state: JointState,
    phi: float = 0.0,
    v_attenuation: float = 1.0,
) -> GateResult:
    """Single-photon single-atom CZ through the MZI-based gate."""
    return cz_new_from_reflections(reflection_lossy(p), p.zeta, state, phi, v_attenuation)


# ---------------------------------------------------------------------------
# old scheme (bare reflection, photonic qubit in sigma-+/-)
# ---------------------------------------------------------------------------


def _old_core(r_c, r_nc, zeta, ap2, bp2, aa2, ba2):
    """Elementwise kernel for the bare-reflection gate."""
    t_c_sq = 1.0 - np.abs(r_c) ** 2
    t_nc_sq = 1.0 - np.abs(r_nc) ** 2
    p_loss = zeta * (t_nc_sq + bp2 * ba2 * (t_c_sq - t_nc_sq))
    success = 1.0 - p_loss
    mis = ap2 + bp2 * (aa2 - ba2)
    mat = ap2 * r_nc + bp2 * (r_nc * aa2 - r_c * ba2)
    num = (1.0 - zeta) * mis**2 + zeta * np.abs(mat) ** 2
    return num, success, p_loss


def cz_old_from_reflections(
    refl: ReflectionPair, zeta: float, state: JointState
) -> GateResult:
    """Evaluate the bare-reflection gate from explicit amplitudes.

    Only the |1>|sigma+> combination drives the cavity; everything else
    sees the empty-cavity response. The ideal output has an overall
    minus sign which is dropped here as unobservable.
    """
    if not 0.0 <= zeta <= 1.0:
        raise ValueError("zeta must lie in [0, 1]")
    ap2 = abs(state.alpha_p) ** 2
    bp2 = abs(state.beta_p) ** 2
    aa2 = abs(state.alpha) ** 2
    ba2 = abs(state.beta) ** 2
    num, success, p_loss = _old_core(refl.r_c, refl.r_nc, zeta, ap2, bp2, aa2, ba2)
    if success < HERALD_TOL:
        return GateResult(None, float(max(success, 0.0)), float(p_loss), 0.0, no_herald=True)
    return GateResult(
        fidelity=_clamp01(float(num / success)),
        success_probability=float(success),
        p_loss=float(p_loss),
        p_h_reject=0.0,
    )


def cz_old(p: CavityParams, state: JointState) -> GateResult:
    """Single-photon single-atom CZ by direct reflection (prior scheme)."""
    return cz_old_from_reflections(reflection_lossy(p), p.zeta, state)


# ---------------------------------------------------------------------------
# Bloch-sphere averages
# ---------------------------------------------------------------------------
#
# With theta the polar angle, |beta|^2 = sin^2(theta/2) is uniform on
# [0, 1] under the sphere measure, and every closed form above depends
# on the qubit amplitudes only through |.|^2, so the azimuthal averages
# are exact. What remains is Gauss-Legendre quadrature over the
# population(s), with the order doubled until the result moves by less
# than _QUAD_TOL or reaches _QUAD_MAX_ORDER.


@lru_cache(maxsize=None)
def _nodes01(order: int):
    # Every average asks for the same few orders; the cached arrays are
    # shared by all callers, hence read-only.
    x, w = np.polynomial.legendre.leggauss(order)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _adaptive(evaluate):
    order = 8
    prev = evaluate(order)
    while order < _QUAD_MAX_ORDER:
        order *= 2
        cur = evaluate(order)
        if abs(cur - prev) < _QUAD_TOL:
            return cur
        prev = cur
    raise RuntimeError("Bloch-average quadrature failed to converge")


def _masked_average(values, success, weights) -> float:
    valid = success >= HERALD_TOL
    wsum = float(np.sum(weights * valid))
    if wsum <= 0.0:
        raise NoHeraldError("gate heralds nowhere on the Bloch sphere")
    vals = np.where(valid, values, 0.0)
    return float(np.sum(weights * vals) / wsum)


def _bloch_average(p: CavityParams, scheme: str, quantity: str, phi: float = 0.0) -> float:
    """Average `quantity` ("fidelity" or "success") of one scheme.

    The new scheme depends on the photon population only (one sphere);
    the old scheme's loss depends on the atom too (two spheres, nodes
    broadcast along separate axes). Fidelity points that do not herald
    are skipped with their weight renormalized.
    """
    refl = reflection_lossy(p)
    if scheme == "new":
        phase = cmath.exp(1j * _reduce_phase(phi))

        def kernel(order):
            b, w = _nodes01(order)
            num, success, *_ = _new_core(refl.r_c, refl.r_nc, p.zeta, 1.0 - b, b, phase, 1.0)
            return num, success, w

    elif scheme == "old":

        def kernel(order):
            b, w = _nodes01(order)
            bp, ba = b[:, None], b[None, :]
            num, success, _ = _old_core(refl.r_c, refl.r_nc, p.zeta, 1.0 - bp, bp, 1.0 - ba, ba)
            return num, success, np.outer(w, w)

    else:
        raise ValueError(f"unknown scheme {scheme!r}; expected 'new' or 'old'")

    def evaluate(order):
        num, success, w = kernel(order)
        if quantity == "success":
            return float(np.sum(w * success))
        with np.errstate(divide="ignore", invalid="ignore"):
            return _masked_average(num / success, success, w)

    return _adaptive(evaluate)


def avg_fidelity_new(p: CavityParams, phi: float = 0.0) -> float:
    """Fidelity of cz_new averaged over the photon Bloch sphere (the
    new scheme's fidelity does not depend on the atomic state)."""
    return _bloch_average(p, "new", "fidelity", phi)


def avg_fidelity_old(p: CavityParams) -> float:
    """Fidelity of cz_old averaged over photon and atom Bloch spheres."""
    return _bloch_average(p, "old", "fidelity")


def avg_success(p: CavityParams, scheme: str, phi: float = 0.0) -> float:
    """Bloch-averaged success probability of either scheme; phi is
    accepted for symmetry (the new scheme's success ignores it)."""
    return _bloch_average(p, scheme, "success", phi)
