"""Closed-form gate results: frozen reference points, internal
identities, bounds, and the Bloch-sphere averages against plain Monte
Carlo integration."""

import math

import numpy as np
import pytest

from cavsim import analytic
from cavsim import (
    CavityParams,
    JointState,
    ReflectionPair,
    avg_fidelity_new,
    avg_fidelity_old,
    avg_success,
    cz_new,
    cz_new_from_reflections,
    cz_old,
    cz_old_from_reflections,
    reflection_lossy,
    sweep_1d,
)
from conftest import random_cavity_params, random_joint_state, random_qubit_pair

EQUAL = JointState.equal_superposition()

# frozen operating points (12 significant digits)
SINGLE_ATOM_POINT = CavityParams(c=3.0, delta_c=0.12, delta_a=0.83 * 0.12, kappa_ratio=0.92, zeta=0.92)
BALANCE_POINT = CavityParams(c=4.0, kappa_ratio=0.916)


def test_old_scheme_frozen_point():
    res = cz_old(SINGLE_ATOM_POINT, EQUAL)
    assert res.fidelity == pytest.approx(0.902190532985, abs=1e-11)
    assert res.success_probability == pytest.approx(0.694455606361, abs=1e-11)
    assert res.p_loss == pytest.approx(0.305544393639, abs=1e-11)
    assert res.p_h_reject == 0.0
    assert res.v_amplitude is None and res.h_amplitude is None


def test_new_scheme_frozen_point():
    res = cz_new(BALANCE_POINT, EQUAL)
    assert res.fidelity == pytest.approx(0.98962289297, abs=1e-11)
    assert res.success_probability == pytest.approx(0.83147891358, abs=1e-11)
    assert res.p_loss == pytest.approx(0.168363061728, abs=1e-11)
    assert res.p_h_reject == pytest.approx(0.000190016441173, abs=1e-14)
    assert res.v_amplitude == pytest.approx(0.775459966752, abs=1e-11)
    assert res.h_amplitude == pytest.approx(0.631396737373, abs=1e-11)


def test_ideal_limits():
    p = CavityParams(c=1e9)
    for res in (cz_new(p, EQUAL), cz_old(p, EQUAL)):
        assert res.fidelity == pytest.approx(1.0, abs=1e-6)
        assert res.success_probability == pytest.approx(1.0, abs=1e-6)


def test_success_factorization():
    # success = (1 - p_loss)(1 - p_h_reject) must hold exactly
    rng = np.random.default_rng(21)
    for _ in range(300):
        p = random_cavity_params(rng)
        s = random_joint_state(rng)
        res = cz_new(p, s, phi=rng.uniform(-4, 4), v_attenuation=rng.uniform(0, 1))
        expect = (1.0 - res.p_loss) * (1.0 - res.p_h_reject)
        assert res.success_probability == pytest.approx(expect, abs=1e-12)
        old = cz_old(p, s)
        assert old.success_probability == pytest.approx(1.0 - old.p_loss, abs=1e-15)


def test_new_fidelity_ignores_atomic_state():
    rng = np.random.default_rng(22)
    p = random_cavity_params(rng)
    ap, bp = random_qubit_pair(rng)
    ref = None
    for _ in range(25):
        aa, ba = random_qubit_pair(rng)
        res = cz_new(p, JointState(ap, bp, aa, ba), phi=0.3)
        if ref is None:
            ref = res
        else:
            assert abs(res.fidelity - ref.fidelity) < 1e-12
            assert abs(res.success_probability - ref.success_probability) < 1e-12


def test_branch_amplitudes_are_normalized():
    rng = np.random.default_rng(23)
    for _ in range(100):
        res = cz_new(random_cavity_params(rng), random_joint_state(rng))
        if res.no_herald:
            continue
        assert res.v_amplitude**2 + res.h_amplitude**2 == pytest.approx(1.0, abs=1e-9)


def test_phase_periodicity_is_exact():
    # 2*pi addition is exact for these dyadic phases, and the reduced
    # phase must then agree bit for bit
    refl = reflection_lossy(BALANCE_POINT)
    for k in range(0, 1024, 97):
        phi = k / 1024.0
        a = cz_new_from_reflections(refl, 1.0, EQUAL, phi=phi)
        b = cz_new_from_reflections(refl, 1.0, EQUAL, phi=phi + 2.0 * math.pi)
        assert a.fidelity == b.fidelity
        assert a.success_probability == b.success_probability


def test_phase_symmetry_on_resonance():
    refl = reflection_lossy(BALANCE_POINT)  # real reflection amplitudes
    for phi in (0.1, 0.5, 1.2, 2.9):
        a = cz_new_from_reflections(refl, 0.9, EQUAL, phi=phi)
        b = cz_new_from_reflections(refl, 0.9, EQUAL, phi=-phi)
        assert a.fidelity == pytest.approx(b.fidelity, abs=1e-15)


def test_results_stay_in_range():
    rng = np.random.default_rng(24)
    for _ in range(2000):
        p = random_cavity_params(rng)
        s = random_joint_state(rng)
        for res in (
            cz_new(p, s, phi=rng.uniform(-7, 7), v_attenuation=rng.uniform(0, 1)),
            cz_old(p, s),
        ):
            assert 0.0 <= res.success_probability <= 1.0 + 1e-12
            assert 0.0 <= res.p_loss <= 1.0 + 1e-12
            assert 0.0 <= res.p_h_reject <= 1.0 + 1e-12
            if not res.no_herald:
                assert 0.0 <= res.fidelity <= 1.0


def test_loss_grows_with_mode_matching():
    # matched light is the only light that can be lost in the cavity,
    # so p_loss rises with zeta in both schemes
    rng = np.random.default_rng(25)
    for _ in range(50):
        base = random_cavity_params(rng, zeta=1.0)
        s = random_joint_state(rng)
        zetas = np.linspace(0.0, 1.0, 11)
        for scheme in (cz_new, cz_old):
            losses = [
                scheme(CavityParams(base.c, base.delta_c, base.delta_a, base.kappa_ratio, z), s).p_loss
                for z in zetas
            ]
            assert all(b >= a - 1e-12 for a, b in zip(losses, losses[1:]))


def test_no_herald_flag_new():
    # photon entirely in the cavity arm, cavity with zero contrast:
    # nothing ever reaches the output port
    refl = ReflectionPair.from_amplitudes(1.0, 1.0)
    state = JointState(0.0, 1.0, 1.0, 0.0)
    res = cz_new_from_reflections(refl, 1.0, state)
    assert res.no_herald
    assert res.fidelity is None
    assert res.success_probability == pytest.approx(0.0, abs=1e-12)


def test_no_herald_flag_old():
    # fully absorbing cavity: the photon never comes back
    refl = ReflectionPair.from_amplitudes(0.0, 0.0)
    res = cz_old_from_reflections(refl, 1.0, EQUAL)
    assert res.no_herald
    assert res.p_loss == pytest.approx(1.0, abs=1e-15)


def test_loss_does_not_round_below_zero():
    # with no atom coupling and a lossless mirror |r| rounds to 1, and
    # p_loss read -2.2e-16 (new) and -4.4e-16 (old)
    p = CavityParams(c=0.0, delta_c=0.6180314587884088, delta_a=-50.0)
    assert cz_new(p, JointState(0.0, 1.0, 1.0, 0.0)).p_loss == 0.0
    assert cz_old(p, EQUAL).p_loss == 0.0


def _scaled_numerator(core, factor):
    def patched(*args):
        num, success, *rest = core(*args)
        return (factor * success, success, *rest)

    return patched


@pytest.mark.parametrize(
    "core, gate",
    [("_new_core", cz_new_from_reflections), ("_old_core", cz_old_from_reflections)],
)
def test_fidelity_above_one_beyond_rounding_raises(monkeypatch, core, gate):
    # a numerator 1% above the success is a wrong formula, not rounding:
    # it raises instead of being clamped to a fidelity of 1
    refl = reflection_lossy(SINGLE_ATOM_POINT)
    kernel = getattr(analytic, core)
    monkeypatch.setattr(analytic, core, _scaled_numerator(kernel, 1.01))
    with pytest.raises(RuntimeError, match="exceeds 1 beyond rounding"):
        gate(refl, 0.92, EQUAL)
    # an overshoot within FIDELITY_OVERSHOOT_TOL is rounding and clamps
    monkeypatch.setattr(analytic, core, _scaled_numerator(kernel, 1 + 5e-13))
    assert gate(refl, 0.92, EQUAL).fidelity == 1.0


def test_heralded_fidelity_bound():
    # the one [0, 1] bound of GateResult and the entanglement fidelities
    assert analytic.FIDELITY_OVERSHOOT_TOL == 1e-12
    assert analytic._unit_interval((1.0 + 2.2e-16) / 1.0) == 1.0
    assert analytic._unit_interval(0.25 / 0.5) == 0.5
    with pytest.raises(RuntimeError, match="exceeds 1 beyond rounding"):
        analytic._unit_interval(1.01 / 1.0)
    # the lower side: rounding below 0 clamps, a larger excursion raises
    assert analytic._unit_interval(-2.2e-16) == 0.0
    with pytest.raises(RuntimeError, match="p_loss -1e-11 falls below 0 beyond rounding"):
        analytic._unit_interval(-1e-11, "p_loss")


def test_input_validation():
    with pytest.raises(ValueError):
        JointState(1.0, 1.0, 1.0, 0.0)  # photon not normalized
    with pytest.raises(ValueError):
        cz_new_from_reflections(ReflectionPair.ideal(), 1.2, EQUAL)
    with pytest.raises(ValueError):
        cz_new_from_reflections(ReflectionPair.ideal(), 1.0, EQUAL, v_attenuation=1.5)
    with pytest.raises(ValueError):
        cz_old_from_reflections(ReflectionPair.ideal(), -0.1, EQUAL)
    with pytest.raises(ValueError):
        avg_success(CavityParams(c=1.0), "fancy")


def test_nan_fails_every_input_check():
    nan = math.nan
    with pytest.raises(ValueError, match="must each be normalized"):
        JointState(nan, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="must each be normalized"):
        JointState(1.0, 0.0, 1.0, nan)
    with pytest.raises(RuntimeError, match="heralded fidelity nan"):
        analytic._unit_interval(nan / 1.0)
    # a pair built directly, past from_amplitudes, reaches the fidelity bound
    refl = ReflectionPair(complex(nan), -1.0 + 0j, 0.0, 0.0)
    with pytest.raises(RuntimeError, match="heralded fidelity nan"):
        cz_new_from_reflections(refl, 1.0, EQUAL)


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_non_finite_phase_is_refused(phi):
    # a NaN phase returned NaN results and an infinite one a bare
    # "math domain error"
    with pytest.raises(ValueError, match="phase must be finite"):
        cz_new(SINGLE_ATOM_POINT, EQUAL, phi=phi)
    with pytest.raises(ValueError, match="phase must be finite"):
        avg_fidelity_new(BALANCE_POINT, phi=phi)


def test_joint_state_stores_each_qubit_normalized():
    # more than 1e-15 off: stored rescaled; within it: stored as given
    y = math.sqrt(1.0 + 0.45e-12)
    state = JointState(0.6 * y, 0.8j * y, 1.0 + 4e-16, 0.0)
    root = math.sqrt(abs(0.6 * y) ** 2 + abs(0.8j * y) ** 2)
    assert (state.alpha_p, state.beta_p) == (0.6 * y / root, 0.8j * y / root)
    assert abs(abs(state.alpha_p) ** 2 + abs(state.beta_p) ** 2 - 1.0) <= 1e-15
    assert state.alpha == 1.0 + 4e-16 and state.beta == 0.0
    with pytest.raises(ValueError, match="must each be normalized"):
        JointState(1.0, 0.0, math.sqrt(1.0 + 1.1e-12), 0.0)


@pytest.mark.parametrize("gate", [cz_new_from_reflections, cz_old_from_reflections])
def test_gate_reads_a_state_off_its_norm_as_normalized(gate):
    # JointState accepts each pair 0.45e-12 off; the old scheme's numerator
    # scales as the fourth power of the amplitudes and its success as the
    # square, so read as given the fidelity was 1 + 1.8e-12 and raised
    y = math.sqrt(1.0 + 0.45e-12)
    off = gate(ReflectionPair.ideal(), 1.0, JointState(0.0, y, y, 0.0))
    assert off == gate(ReflectionPair.ideal(), 1.0, JointState(0.0, 1.0, 1.0, 0.0))
    assert off.fidelity == 1.0 and off.success_probability == 1.0
    refl = reflection_lossy(SINGLE_ATOM_POINT)
    state = JointState(0.6 * y, 0.8j * y, 0.8 * y, -0.6 * y)
    exact = gate(refl, 0.92, JointState(0.6, 0.8j, 0.8, -0.6))
    assert gate(refl, 0.92, state).fidelity == pytest.approx(exact.fidelity, rel=1e-15)


# ---------------------------------------------------------------------------
# Bloch-sphere averages
# ---------------------------------------------------------------------------

BASELINE = CavityParams(c=4.0, kappa_ratio=0.916, zeta=0.92)


def test_average_frozen_values():
    assert avg_fidelity_new(BASELINE) == pytest.approx(0.976582996662, abs=1e-9)
    assert avg_fidelity_old(BASELINE) == pytest.approx(0.936098289627, abs=1e-9)
    assert avg_success(BASELINE, "new") == pytest.approx(0.804960600494, abs=1e-9)
    assert avg_success(BASELINE, "old") == pytest.approx(0.70352902321, abs=1e-9)


def test_average_ideal_limit():
    p = CavityParams(c=1e9)
    assert avg_fidelity_new(p) == pytest.approx(1.0, abs=1e-6)
    assert avg_fidelity_old(p) == pytest.approx(1.0, abs=1e-6)
    assert avg_success(p, "new") == pytest.approx(1.0, abs=1e-6)
    assert avg_success(p, "old") == pytest.approx(1.0, abs=1e-6)


def _sphere_populations(rng, n):
    # uniform Bloch measure: the excited-state population is uniform
    return rng.uniform(0.0, 1.0, n)


def test_average_fidelity_new_against_monte_carlo():
    rng = np.random.default_rng(26)
    n = 4000
    b2 = _sphere_populations(rng, n)
    refl = reflection_lossy(BASELINE)
    vals = np.empty(n)
    for i, x in enumerate(b2):
        bp = math.sqrt(x)
        ap = math.sqrt(1.0 - x)
        res = cz_new_from_reflections(refl, BASELINE.zeta, JointState(ap, bp, 1.0, 0.0))
        vals[i] = res.fidelity
    mc = vals.mean()
    err = vals.std(ddof=1) / math.sqrt(n)
    assert abs(avg_fidelity_new(BASELINE) - mc) < 5.0 * err + 1e-9


def test_average_success_old_against_monte_carlo():
    rng = np.random.default_rng(27)
    n = 4000
    bp2 = _sphere_populations(rng, n)
    ba2 = _sphere_populations(rng, n)
    refl = reflection_lossy(BASELINE)
    vals = np.empty(n)
    for i in range(n):
        s = JointState(
            math.sqrt(1.0 - bp2[i]), math.sqrt(bp2[i]),
            math.sqrt(1.0 - ba2[i]), math.sqrt(ba2[i]),
        )
        vals[i] = cz_old_from_reflections(refl, BASELINE.zeta, s).success_probability
    mc = vals.mean()
    err = vals.std(ddof=1) / math.sqrt(n)
    assert abs(avg_success(BASELINE, "old") - mc) < 5.0 * err + 1e-9


def test_average_fidelity_old_against_monte_carlo():
    rng = np.random.default_rng(28)
    n = 4000
    bp2 = _sphere_populations(rng, n)
    ba2 = _sphere_populations(rng, n)
    refl = reflection_lossy(BASELINE)
    vals = np.empty(n)
    for i in range(n):
        s = JointState(
            math.sqrt(1.0 - bp2[i]), math.sqrt(bp2[i]),
            math.sqrt(1.0 - ba2[i]), math.sqrt(ba2[i]),
        )
        vals[i] = cz_old_from_reflections(refl, BASELINE.zeta, s).fidelity
    mc = vals.mean()
    err = vals.std(ddof=1) / math.sqrt(n)
    assert abs(avg_fidelity_old(BASELINE) - mc) < 5.0 * err + 1e-9


# 40-digit mpmath integrals of the exact integrands, to 20 digits
# (params, phi, value)
MPMATH_FIDELITY_NEW = [
    # the gate barely acts: an edge layer near b = 1 that quadrature does not resolve
    (CavityParams(c=3.3766, delta_c=-0.398, delta_a=0.257, kappa_ratio=0.00019, zeta=0.857),
     0.0, 0.50012024867901344725),
    # zeta = 0: no light reaches the cavity mode, fidelity (1 - b)
    (CavityParams(c=4.0, kappa_ratio=0.916, zeta=0.0), 0.0, 0.5),
    # s = 1 - zeta |g|^2 of order 1e-3 and 1e-6, with phi near pi
    (CavityParams(c=925.0, kappa_ratio=1.0, zeta=1.0), math.pi, 0.33333334306754018936),
    (CavityParams(c=925.0, kappa_ratio=1.0, zeta=1.0), 3.14, 0.33333376582498997065),
    (CavityParams(c=925.0, delta_c=0.02, delta_a=-0.01, kappa_ratio=0.9999, zeta=0.9995),
     -3.1, 0.33404869053571047),
    (CavityParams(c=1e6, kappa_ratio=1.0, zeta=1.0), math.nextafter(math.pi, 0.0),
     0.33333333333334166666),
    # s = 0.556 and 0.390, on either side of the series switch-over
    (CavityParams(c=1.0, kappa_ratio=1.0, zeta=1.0), math.pi, 0.33869755675756710048),
    (BASELINE, 0.0, 0.97658299666225890023),
]


@pytest.mark.parametrize("params, phi, expected", MPMATH_FIDELITY_NEW)
def test_average_fidelity_new_matches_mpmath(params, phi, expected):
    assert avg_fidelity_new(params, phi) == pytest.approx(expected, rel=0.0, abs=5e-15)


def _old_point(c, kappa_ratio=0.7, zeta=0.92, delta_c=0.0, delta_a=0.0):
    return CavityParams(c=c, delta_c=delta_c, delta_a=delta_a, kappa_ratio=kappa_ratio, zeta=zeta)


# 40-digit mpmath integrals of the old scheme's heralded fidelity N(u)/D(u)
# against the density -ln u over the heralded interval, to 20 digits; x is
# d1/d0 with D = d0 - d1 u. (params, value)
MPMATH_FIDELITY_OLD = [
    (BASELINE, 0.93609828962684305613),  # x = 0.074
    # almost nothing reflects: D = d1 u exactly (d0 = 0), heralded u >= 0.25
    (_old_point(1e-6, kappa_ratio=0.5, zeta=1.0), 0.47357735277840373459),
    (_old_point(1e-6, kappa_ratio=0.5, zeta=1.0, delta_a=0.3), 0.4907727514209635791),
    (_old_point(1e-6, kappa_ratio=0.49, zeta=1.0), 0.44442811195474308737),
    # D = d0 - d1 u with 0 < d0 = 5e-13 < HERALD_TOL: heralded u >= 0.125
    (_old_point(1e-6, kappa_ratio=0.5, zeta=1.0 - 5e-13), 0.36066107976939552408),
    # D(1) = |r_c|^2 ~ 4e-14: heralded u <= 0.758
    (_old_point(9e-7, kappa_ratio=0.500001, zeta=1.0), 0.72343684865118040555),
    # either side of x = 0.5, x = -0.5 and x = -2, where the method changes
    (_old_point(0.36544893), 0.72891210063745454323),  # x = 0.4999
    (_old_point(0.36531068), 0.72884727933883879945),  # x = 0.5001
    (_old_point(0.99701743), 0.82389841197272001206),  # x = -0.4999
    (_old_point(0.99716594), 0.8239021527485042484),  # x = -0.5001
    (_old_point(3.157905), 0.82026175853858141759),  # x = -1.9999
    (_old_point(3.1584888), 0.8202592623120206654),  # x = -2.0001
    # x = -0.504, where the dilogarithm form would be 1.1e-14 off
    (_old_point(65.4784, kappa_ratio=0.667, zeta=0.898, delta_c=-1.14, delta_a=-0.071),
     0.52935410126591226057),
    # the low end of the kappa_ratio axis (x = -2.24) and far beyond it
    (_old_point(4.0), 0.81712446571926272043),
    (_old_point(50.0, kappa_ratio=0.5, zeta=1.0, delta_c=0.3, delta_a=-0.2),
     0.45327509489475803707),  # x = -10.9
    # r_c ~ 0: x = 1 - 3e-11, and x = 1 - 3e-15 with heralded u <= 1 - 1.6e-12
    (_old_point(0.400004, kappa_ratio=0.9, zeta=1.0), 0.75000277776990528378),
    (_old_point(0.4 * (1 + 1e-7), kappa_ratio=0.9, zeta=1.0), 0.750000027777777054),
    # d1 = 0: the fidelity (1 - 2u)^2 averages to 4/9
    (_old_point(0.0), 0.44444444444444444444),
    (_old_point(4.0, kappa_ratio=0.916, zeta=0.0), 0.44444444444444444444),
]


@pytest.mark.parametrize("params, expected", MPMATH_FIDELITY_OLD)
def test_average_fidelity_old_matches_mpmath(params, expected):
    assert avg_fidelity_old(params) == pytest.approx(expected, rel=0.0, abs=5e-15)


# Narrow heralded intervals [lo, 1], where differences of antiderivatives
# at lo and 1 lose about eps / (1 - lo)^2: 40-digit mpmath quadratures
# of N(u)/D(u) against -ln u over the interval, to 22 digits.
# (params, lo, value)
MPMATH_FIDELITY_OLD_NARROW = [
    (_old_point(5.111719874505108e-07, kappa_ratio=0.5, zeta=1.0, delta_a=-0.16960539113332307),
     0.98429069, 0.9895202211090216061432),
    (_old_point(5.073947713651884e-07, kappa_ratio=0.5, zeta=1.0, delta_a=-0.16960539113332307),
     0.999, 0.9993333054623157034745),
    (_old_point(5.071435459913509e-07, kappa_ratio=0.5, zeta=1.0, delta_a=-0.16960539113332307),
     0.99999, 0.9999933332329966775901),
    # r_nc != 0 and zeta < 1, so every coefficient of N is nonzero
    (_old_point(5.4246e-07, kappa_ratio=0.5, zeta=1.0 - 2e-13, delta_c=3e-7, delta_a=0.4),
     0.89853253, 0.8938227850862765349545),
]


@pytest.mark.parametrize("params, lo, expected", MPMATH_FIDELITY_OLD_NARROW)
def test_average_fidelity_old_on_a_narrow_heralded_interval(params, lo, expected):
    # the interval starts where the success D(u) falls to HERALD_TOL
    refl = reflection_lossy(params)
    _, d_lo, _ = analytic._old_core(refl.r_c, refl.r_nc, params.zeta, 0.0, 1.0, 1.0 - lo, lo)
    assert d_lo == pytest.approx(analytic.HERALD_TOL, rel=1e-6)
    assert avg_fidelity_old(params) == pytest.approx(expected, rel=0.0, abs=1e-15)


def test_average_fidelity_old_without_herald_raises():
    # critical coupling at C = 0: r_c = r_nc = 0, nothing comes back
    with pytest.raises(analytic.NoHeraldError):
        avg_fidelity_old(CavityParams(c=0.0, kappa_ratio=0.5, zeta=1.0))


# mpmath.polylog(2, x) at 40 digits, to 21
MPMATH_LI2 = [
    (-999999.0, -97.0790852399416749023),
    (-1000.0, -25.5024758138899688329),
    (-7.5, -3.54571710425584622457),
    (-2.0, -1.43674636688368094636),
    (-1.000000000001, -0.822467033424806427038),
    (-1.0, -0.822467033424113218236),
    (-0.999, -0.821773789647240643185),
    (-0.5, -0.448414206923646202443),
    (-1e-09, -9.99999999750000062393e-10),
    (0.0, 0.0),
    (1e-12, 1.00000000000024997989e-12),
    (0.25, 0.267652639082732606919),
    (0.5, 0.582240526465012505903),
    (0.500000000001, 0.582240526466398769597),
    (0.75, 0.978469392930306103743),
    (0.999, 1.63702260527611773655),
    (0.999999999999, 1.6449340668195960266),
    (1.0, 1.64493406684822643647),
]


@pytest.mark.parametrize("x, expected", MPMATH_LI2)
def test_dilogarithm_matches_mpmath(x, expected):
    assert analytic._li2(x) == pytest.approx(expected, rel=2e-15, abs=0.0)


def test_dilogarithm_is_real_only_up_to_one():
    with pytest.raises(ValueError):
        analytic._li2(1.5)


def test_average_success_old_rounds_correctly_at_a_tie():
    # mpmath: 0.77923680526449997936, 2e-17 below the 12-digit tie; the
    # nearest double lies above it, so the artifact shows ...265
    p = CavityParams(c=4.0, delta_c=0.74, kappa_ratio=0.916, zeta=0.92)
    value = avg_success(p, "old")
    assert abs(value - 0.77923680526449997936) <= math.ulp(value) / 2


def _nodes01(order):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


def _gauss_legendre(evaluate):
    """Order-doubling quadrature: evaluate(nodes, weights) at orders 8 to
    256 until two orders agree to 1e-11, or None if they never do."""
    prev = None
    for order in (8, 16, 32, 64, 128, 256):
        cur = evaluate(*_nodes01(order))
        if prev is not None and abs(cur - prev) < 1e-11:
            return cur
        prev = cur
    return None


def _gauss_legendre_fidelity_new(p, phi):
    """Reference: the heralded fidelity of cz_new on nodes in b."""
    refl = reflection_lossy(p)
    phase = complex(math.cos(phi), math.sin(phi))

    def evaluate(b, w):
        num, success, *_ = analytic._new_core(refl.r_c, refl.r_nc, p.zeta, 1.0 - b, b, phase, 1.0)
        return float(np.sum(w * num / success))

    return _gauss_legendre(evaluate)


def _gauss_legendre_fidelity_old(p):
    """Reference: the heralded fidelity of cz_old on one node axis per
    sphere; nodes that do not herald are dropped and the weights
    renormalized."""
    refl = reflection_lossy(p)

    def evaluate(b, w):
        bp, ba = b[:, None], b[None, :]
        num, success, _ = analytic._old_core(refl.r_c, refl.r_nc, p.zeta, 1.0 - bp, bp, 1.0 - ba, ba)
        valid = success >= analytic.HERALD_TOL
        weights = np.outer(w, w) * valid
        ratio = np.divide(num, success, out=np.zeros_like(num), where=valid)
        return float(np.sum(weights * ratio) / np.sum(weights))

    return _gauss_legendre(evaluate)


def test_average_fidelity_new_matches_gauss_legendre():
    rng = np.random.default_rng(31)
    compared = 0
    for _ in range(200):
        p = random_cavity_params(rng)
        phi = float(rng.uniform(-math.pi, math.pi))
        reference = _gauss_legendre_fidelity_new(p, phi)
        if reference is None:
            continue
        compared += 1
        assert avg_fidelity_new(p, phi) == pytest.approx(reference, rel=0.0, abs=1e-9)
    assert compared > 100


def test_average_fidelity_old_matches_gauss_legendre():
    rng = np.random.default_rng(33)
    compared = 0
    for _ in range(100):
        p = random_cavity_params(rng)
        reference = _gauss_legendre_fidelity_old(p)
        if reference is None:
            continue
        compared += 1
        assert avg_fidelity_old(p) == pytest.approx(reference, rel=0.0, abs=1e-9)
    assert compared > 90


def test_closed_form_success_matches_gauss_legendre():
    rng = np.random.default_rng(32)
    b, w = _nodes01(8)
    bp, ba = b[:, None], b[None, :]
    for _ in range(50):
        p = random_cavity_params(rng)
        refl = reflection_lossy(p)
        _, new, *_ = analytic._new_core(refl.r_c, refl.r_nc, p.zeta, 1.0 - b, b, 1.0, 1.0)
        _, old, _ = analytic._old_core(refl.r_c, refl.r_nc, p.zeta, 1.0 - bp, bp, 1.0 - ba, ba)
        assert avg_success(p, "new") == pytest.approx(float(np.sum(w * new)), rel=0.0, abs=1e-14)
        assert avg_success(p, "old") == pytest.approx(
            float(np.sum(np.outer(w, w) * old)), rel=0.0, abs=1e-14
        )


def test_average_is_phase_aware():
    # a large interferometer phase error must show up in the average
    good = avg_fidelity_new(BALANCE_POINT, phi=0.0)
    bad = avg_fidelity_new(BALANCE_POINT, phi=0.5)
    assert bad < good - 0.01


# ---------------------------------------------------------------------------
# no quadrature left
# ---------------------------------------------------------------------------


def test_sweep_builds_no_quadrature_nodes(monkeypatch):
    orders = []
    leggauss = np.polynomial.legendre.leggauss

    def counting_leggauss(order):
        orders.append(order)
        return leggauss(order)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting_leggauss)
    values = np.linspace(0.8, 1.0, 101)
    for scheme in ("new", "old"):
        sweep_1d(BASELINE, "zeta", values, scheme, "fidelity")
    assert orders == []
