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
from itertools import accumulate

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
    """Shared kernel; works on scalars and elementwise on numpy arrays.

    Returns (fidelity numerator, success, p_loss, raw H probability,
    survival 1 - p_loss). Fidelity = numerator / success where success
    is nonzero.
    """
    g = 0.5 * (r_c - r_nc)
    t_sum = (1.0 - abs(r_c) ** 2) + (1.0 - abs(r_nc) ** 2)
    p_loss = (1.0 - att * att) * a2 + zeta * 0.5 * b2 * t_sum
    nl2 = 1.0 - p_loss
    raw_h = (1.0 - zeta) * b2 + zeta * 0.25 * b2 * abs(r_c + r_nc) ** 2
    # nl2 - raw_h for a normalized photon, as a sum of non-negative terms:
    # the difference cancels to rounding error where success is near zero
    success = att * att * a2 + zeta * abs(g) ** 2 * b2
    num = (1.0 - zeta) * (att * a2) ** 2 + zeta * abs(att * a2 * phase + g * b2) ** 2
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
    """Kernel of the bare-reflection gate; scalars or numpy arrays."""
    t_c_sq = 1.0 - abs(r_c) ** 2
    t_nc_sq = 1.0 - abs(r_nc) ** 2
    u = bp2 * ba2
    p_loss = zeta * (t_nc_sq + u * (t_c_sq - t_nc_sq))
    # 1 - p_loss as a sum of non-negative terms, which does not cancel
    success = (1.0 - zeta) + zeta * ((1.0 - u) * abs(r_nc) ** 2 + u * abs(r_c) ** 2)
    mis = ap2 + bp2 * (aa2 - ba2)
    mat = ap2 * r_nc + bp2 * (r_nc * aa2 - r_c * ba2)
    num = (1.0 - zeta) * mis**2 + zeta * abs(mat) ** 2
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
# are exact. The success probabilities are linear in each population.
# The new scheme's fidelity is quadratic over linear in b = |beta_p|^2;
# the old scheme's is quadratic over linear in the product
# u = |beta_p|^2 |beta_a|^2, whose density on [0, 1] is -ln u. All four
# averages are therefore closed forms: a logarithm for the new scheme's
# fidelity, a dilogarithm for the old one's.


def _li2(x: float) -> float:
    """Real dilogarithm Li2(x) = sum_k x^k / k^2 for x <= 1.

    Inversion maps x < -1 into (-1, 0), Landen's identity maps [-1, 0)
    into (0, 1/2] and reflection maps (1/2, 1) into (0, 1/2), where the
    power series converges at least as fast as 2^-k. Above 1, math.log1p
    raises ValueError."""
    if x == 1.0:
        return math.pi**2 / 6.0
    if x < -1.0:
        return -math.pi**2 / 6.0 - 0.5 * math.log(-x) ** 2 - _li2(1.0 / x)
    if x < 0.0:
        return -_li2(x / (x - 1.0)) - 0.5 * math.log1p(-x) ** 2
    if x > 0.5:
        return math.pi**2 / 6.0 - math.log(x) * math.log1p(-x) - _li2(1.0 - x)
    total, xk, k = 0.0, x, 1
    while total + xk / (k * k) != total:
        total += xk / (k * k)
        xk *= x
        k += 1
    return total


# Divisors 1/E[w^j] of the moments on [0, 1], exact integers where they
# can be: j+1 for w uniform; under the density -ln u of u, (j+1)^2 for
# w = u and (j+1)/H_{j+1} for w = 1 - u (H the harmonic numbers). The
# series below run at ratios |x| <= 2/3; 128 terms leave < 1e-22.
_SERIES_TERMS = 128
_UNIFORM_DENOMS = tuple(range(1, _SERIES_TERMS + 3))
_U_DENOMS = tuple(j * j for j in _UNIFORM_DENOMS)
_V_DENOMS = tuple(
    (j + 1) / h for j, h in enumerate(accumulate(1.0 / i for i in range(1, _SERIES_TERMS + 3)))
)


def _moment_series(m0: float, m1: float, m2: float, x: float, denoms) -> float:
    """Average of (m0 + m1 w + m2 w^2) / (1 - x w) for |x| <= 2/3, as the
    sum over k of x^k (m0/d_k + m1/d_(k+1) + m2/d_(k+2)), d = denoms. It
    stops once a bound on the next term no longer changes the sum."""
    scale = abs(m0) + abs(m1) + abs(m2)
    total, xk = 0.0, 1.0
    for k in range(_SERIES_TERMS):
        if total + abs(xk) * scale / denoms[k] == total:
            break
        total += xk * (m0 / denoms[k] + m1 / denoms[k + 1] + m2 / denoms[k + 2])
        xk *= x
    return total


def avg_fidelity_new(p: CavityParams, phi: float = 0.0) -> float:
    """Fidelity of cz_new averaged over the photon Bloch sphere (the
    new scheme's fidelity does not depend on the atomic state).

    With g = (r_c - r_nc)/2 and eps = zeta |g|^2 the heralded fidelity is
    (1 + B b + C b^2) / (1 - s b): s = 1 - eps, B = 2 zeta Re(exp(-i phi) g) - 2,
    C = -1 - B + eps. It is at most 1 and equals 1 at b = 1, so the exact
    average always exists. Below s = 0.5, where the logarithm form cancels
    badly, it is summed as a power series in s."""
    refl = reflection_lossy(p)
    g = 0.5 * (refl.r_c - refl.r_nc)
    eps = p.zeta * abs(g) ** 2
    zr = p.zeta * (cmath.exp(-1j * _reduce_phase(phi)) * g).real
    s = 1.0 - eps
    b1, c2 = 2.0 * zr - 2.0, 1.0 - 2.0 * zr + eps
    if s < 0.5:  # b is uniform on [0, 1]
        return _moment_series(1.0, b1, c2, s, _UNIFORM_DENOMS)
    # num = (q1 b + q0)(1 - s b) + num(1/s), and num(1/s) = eps C / s^2
    q1 = -c2 / s
    q0 = (q1 - b1) / s
    return 0.5 * q1 + q0 + (eps * c2 / s**3 * -math.log(eps) if eps > 0.0 else 0.0)


def avg_fidelity_old(p: CavityParams) -> float:
    """Fidelity of cz_old averaged over photon and atom Bloch spheres.

    With S = r_c + r_nc and u = |beta_p|^2 |beta_a|^2 the heralded
    fidelity is N(u) / D(u): N = n0 + n1 u + n2 u^2, and D = d0 - d1 u is
    the success probability. The average weighs u by its density -ln u
    over the heralded set {D >= HERALD_TOL}, which is one interval because
    D is linear; NoHeraldError where it is empty. On all of [0, 1] and for
    x = d1/d0 in [-2, 1/2) it is a power series in u or 1 - u; otherwise
    N/D is split into a polynomial and R/D, whose integral is one
    dilogarithm (or two, on part of [0, 1])."""
    refl = reflection_lossy(p)
    zeta, r_c, r_nc = p.zeta, refl.r_c, refl.r_nc
    s = r_c + r_nc
    n0 = 1.0 - zeta + zeta * abs(r_nc) ** 2
    n1 = -4.0 * (1.0 - zeta) - 2.0 * zeta * (r_nc.conjugate() * s).real
    n2 = 4.0 * (1.0 - zeta) + zeta * abs(s) ** 2
    # D = 1 - zeta (t_nc + u (t_c - t_nc)) with t = 1 - |r|^2 unclamped, as
    # in _old_core, written without the cancellation of 1 - |r|^2 at small |r|
    d0 = n0
    d1 = zeta * (abs(r_nc) ** 2 - abs(r_c) ** 2)
    lo, hi = 0.0, 1.0  # the heralded interval; D = HERALD_TOL at its inner ends
    if d1 > 0.0:
        hi = min(hi, (d0 - HERALD_TOL) / d1)
    elif d1 < 0.0:
        lo = max(lo, (d0 - HERALD_TOL) / d1)
    elif d0 < HERALD_TOL:
        hi = lo
    if hi <= lo:
        raise NoHeraldError("gate heralds nowhere on the Bloch sphere")
    if lo == 0.0 and hi == 1.0:
        x = d1 / d0  # D = d0 (1 - x u)
        if abs(x) < 0.5:
            return _moment_series(n0, n1, n2, x, _U_DENOMS) / d0
        if -2.0 <= x < 0.0:  # D = D(1) (1 - x' (1 - u)), x' = -x / (1 - x) in [1/3, 2/3]
            return _moment_series(
                n0 + n1 + n2, -n1 - 2.0 * n2, n2, -x / (1.0 - x), _V_DENOMS
            ) / (d0 - d1)
    # N = (q1 u + q0) D + R; the integral of -ln u / D over [0, 1] is Li2(x) / d1
    q1 = -n2 / d1
    q0 = (q1 * d0 - n1) / d1
    rem = n0 - q0 * d0
    if lo == 0.0 and hi == 1.0:
        return 0.25 * q1 + q0 + rem * _li2(x) / d1

    def poly(u):  # antiderivatives of (q1 u + q0)(-ln u) and of -ln u
        lu = math.log(u) if u > 0.0 else 0.0
        return 0.25 * q1 * u * u * (1.0 - 2.0 * lu) + q0 * u * (1.0 - lu), u * (1.0 - lu)

    def frac(u):  # antiderivative of -ln u / D times d1, up to a constant
        if u == 0.0:
            return 0.0
        lu = math.log(u)
        if d1 > 0.0:  # here d0 > 0 and x u < 1
            xu = d1 / d0 * u
            return lu * math.log1p(-xu) + _li2(xu)
        y = d0 / (d1 * u)  # d1 < 0 and d0 = n0 >= 0, so y = 1/(x u) <= 0; d0 = 0 is allowed
        return 0.5 * lu * lu + lu * math.log1p(-y) - _li2(y)

    (p_hi, w_hi), (p_lo, w_lo) = poly(hi), poly(lo)
    return (p_hi - p_lo + rem * (frac(hi) - frac(lo)) / d1) / (w_hi - w_lo)


def avg_success(p: CavityParams, scheme: str) -> float:
    """Bloch-averaged success probability of either scheme: the new
    scheme's 1 - (1 - zeta |g|^2) b averages to (1 + zeta |g|^2)/2, the
    old scheme's 1 - zeta (t_nc + b_p b_a (t_c - t_nc)) to
    1 - zeta (3 t_nc + t_c)/4."""
    refl = reflection_lossy(p)
    if scheme == "new":
        return 0.5 * (1.0 + p.zeta * abs(0.5 * (refl.r_c - refl.r_nc)) ** 2)
    if scheme == "old":
        return 1.0 - p.zeta * (3.0 * refl.t_nc_sq + refl.t_c_sq) / 4.0
    raise ValueError(f"unknown scheme {scheme!r}; expected 'new' or 'old'")
