"""The network oracle: per-element probability bookkeeping, gauge
invariance of the mismatched mode, and agreement with the closed forms
it was built to check."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavsim import CavityParams, JointState, NoHeraldError, ReflectionPair, reflection_lossy
from cavsim.analytic import cz_new_from_reflections, cz_old_from_reflections
from cavsim.cli import ORACLE_AGREEMENT_TOL
from cavsim.entangle import TwoCavitySetup, _bell_new_core, atom_atom_new
from cavsim.oracle import (
    CONSERVATION_TOL,
    HERALD_TOL,
    NetworkState,
    apply_attenuator,
    apply_hwp,
    apply_pbs,
    apply_phase,
    apply_qwp,
    apply_scattering,
    fidelity_against,
    herald,
    measure_polarization,
    prepare_photon_atom,
    run_cz_new,
    run_cz_old,
    run_remote_new,
)
from conftest import (
    bloch_pairs,
    edge_cavity_params,
    edge_phases,
    random_cavity_params,
    random_joint_state,
    unit_or_edge,
)

EQUAL = JointState.equal_superposition()


def _random_network_state(rng):
    s = random_joint_state(rng)
    st = prepare_photon_atom({"H": s.beta_p, "V": s.alpha_p}, (s.alpha, s.beta))
    # make it less trivial: split paths and mix polarizations first
    st = apply_pbs(st, "in", "a", "b")
    st = apply_qwp(st, "a")
    st = apply_phase(st, "b", float(rng.uniform(-3, 3)))
    return st


def test_lossless_elements_preserve_norm():
    rng = np.random.default_rng(31)
    for _ in range(50):
        st = _random_network_state(rng)
        for op in (
            lambda s: apply_pbs(s, "a", "c", "d"),
            lambda s: apply_hwp(s, "a"),
            lambda s: apply_qwp(s, "b"),
            lambda s: apply_phase(s, "a", 1.3),
        ):
            out = op(st)
            assert abs(out.norm_sq() - st.norm_sq()) < 1e-12
            assert out.conservation_defect() <= CONSERVATION_TOL


def test_waveplates_square_correctly():
    # two half-wave plates are the identity; the diagonal-basis rotator
    # is a Hermitian reflection, so it squares to the identity too
    st = prepare_photon_atom({"H": 0.6, "V": 0.8}, (1.0, 0.0))
    twice = apply_hwp(apply_hwp(st, "in"), "in")
    assert abs(twice.amps[("H", "in", (), 0)] - 0.6) < 1e-15
    assert abs(twice.amps[("V", "in", (), 0)] - 0.8) < 1e-15
    q1 = apply_qwp(st, "in")
    root_half = math.sqrt(0.5)
    assert abs(q1.amps[("H", "in", (), 0)] - 0.2 * root_half) < 1e-15
    assert abs(q1.amps[("V", "in", (), 0)] - 1.4 * root_half) < 1e-15
    q2 = apply_qwp(q1, "in")
    assert abs(q2.amps[("H", "in", (), 0)] - 0.6) < 1e-14
    assert abs(q2.amps[("V", "in", (), 0)] - 0.8) < 1e-14


def test_attenuator_bookkeeping():
    st = prepare_photon_atom({"H": 0.6, "V": 0.8}, (1.0, 0.0))
    att = apply_attenuator(st, "in", 0.5)
    assert att.conservation_defect() <= CONSERVATION_TOL
    assert att.norm_sq() == pytest.approx(0.25, abs=1e-12)
    assert att.discarded == pytest.approx(0.75, abs=1e-12)
    with pytest.raises(ValueError):
        apply_attenuator(st, "in", 1.5)


def test_scattering_conserves_probability():
    rng = np.random.default_rng(32)
    for _ in range(100):
        p = random_cavity_params(rng)
        refl = reflection_lossy(p)
        s = random_joint_state(rng)
        st = prepare_photon_atom({"H": s.beta_p, "V": s.alpha_p}, (s.alpha, s.beta))
        out = apply_scattering(st, "in", refl, zeta=p.zeta, theta=float(rng.uniform(-3, 3)))
        assert out.conservation_defect() <= CONSERVATION_TOL
        assert abs(out.norm_sq() + out.discarded - 1.0) < 1e-12


def test_ideal_scattering_is_lossless():
    st = prepare_photon_atom({"H": 1.0}, (0.6, 0.8))
    out = apply_scattering(st, "in", ReflectionPair.ideal())
    assert out.discarded == 0.0
    # sigma+|0> and sigma-|1> pick up +1, the cross terms -1:
    # H(0.6|0> + 0.8|1>) -> 0.8 V ... check the flip happened
    assert abs(out.amps[("V", "in", (), 1)] + 0.8) < 1e-12


def test_mismatch_phase_is_unobservable():
    # the mismatched mode is traced over, so its phase must drop out
    refl = reflection_lossy(CavityParams(c=2.5, delta_c=0.4, kappa_ratio=0.8))
    base = run_cz_new(refl, 0.7, EQUAL, phi=0.4)
    for theta in np.linspace(-math.pi, math.pi, 23):
        res = run_cz_new(refl, 0.7, EQUAL, phi=0.4, theta=float(theta))
        assert abs(res.fidelity - base.fidelity) < 1e-10
        assert abs(res.success_probability - base.success_probability) < 1e-10
    old = run_cz_old(refl, 0.7, EQUAL)
    for theta in (0.0, 1.0, -2.5):
        res = run_cz_old(refl, 0.7, EQUAL, theta=theta)
        assert abs(res.fidelity - old.fidelity) < 1e-10


def test_network_matches_closed_form_new():
    rng = np.random.default_rng(33)
    for _ in range(400):
        p = random_cavity_params(rng)
        refl = reflection_lossy(p)
        s = random_joint_state(rng)
        phi = float(rng.uniform(-7, 7))
        att = float(rng.uniform(0.2, 1.0))
        a = cz_new_from_reflections(refl, p.zeta, s, phi=phi, v_attenuation=att)
        b = run_cz_new(refl, p.zeta, s, phi=phi, v_attenuation=att)
        assert a.no_herald == b.no_herald
        assert abs(a.success_probability - b.success_probability) < 1e-10
        assert abs(a.p_loss - b.p_loss) < 1e-10
        if not a.no_herald:
            assert abs(a.fidelity - b.fidelity) < 1e-10
            assert abs(a.p_h_reject - b.p_h_reject) < 1e-10
            assert abs(a.v_amplitude - b.v_amplitude) < 1e-10
            assert abs(a.h_amplitude - b.h_amplitude) < 1e-10


def test_network_matches_closed_form_old():
    rng = np.random.default_rng(34)
    for _ in range(400):
        p = random_cavity_params(rng)
        refl = reflection_lossy(p)
        s = random_joint_state(rng)
        a = cz_old_from_reflections(refl, p.zeta, s)
        b = run_cz_old(refl, p.zeta, s)
        assert a.no_herald == b.no_herald
        assert abs(a.success_probability - b.success_probability) < 1e-10
        assert abs(a.p_loss - b.p_loss) < 1e-10
        if not a.no_herald:
            assert abs(a.fidelity - b.fidelity) < 1e-10


def test_old_scheme_matches_network_where_success_is_1e_12():
    # critical coupling at vanishing C: only 1e-12 of the light comes
    # back, so a success written as 1 - p_loss would cancel to ~1e-4
    p = CavityParams(c=1e-6, kappa_ratio=0.5000003, zeta=1.0)
    s = JointState(0.6, 0.8, 0.6, 0.8)
    a = cz_old_from_reflections(reflection_lossy(p), p.zeta, s)
    b = run_cz_old(reflection_lossy(p), p.zeta, s)
    assert 1e-12 < a.success_probability < 1.1e-12
    assert abs(a.success_probability - b.success_probability) < 1e-10
    assert abs(a.fidelity - b.fidelity) < 1e-10


def test_remote_chain_matches_closed_form():
    rng = np.random.default_rng(35)
    for _ in range(40):
        p1 = random_cavity_params(rng, zeta=1.0)
        p2 = random_cavity_params(rng, zeta=1.0)
        f1 = float(rng.uniform(-3, 3))
        f2 = float(rng.uniform(-3, 3))
        closed = atom_atom_new(TwoCavitySetup(p1, p2, f1, f2))
        r1 = reflection_lossy(p1)
        r2 = reflection_lossy(p2)
        res = run_remote_new(r1, r2, f1, f2)
        # both polarization heralds give the same Bell fidelity
        assert abs(res.fidelity_v - closed) < 1e-10
        assert abs(res.fidelity_h - closed) < 1e-10
        g1 = 0.5 * abs(r1.r_c - r1.r_nc)
        g2 = 0.5 * abs(r2.r_c - r2.r_nc)
        assert abs(res.herald_probability - 0.5 * (g1**2 + g2**2)) < 1e-10
        assert abs(res.prob_v + res.prob_h - res.herald_probability) < 1e-12


_REPORTED = (
    "fidelity", "success_probability", "p_loss", "p_h_reject", "v_amplitude", "h_amplitude"
)


def _assert_agrees(closed, net):
    for res in (closed, net):
        for name in _REPORTED:
            x = getattr(res, name)
            assert x is None or 0.0 <= x <= 1.0, (name, x)
    assert closed.no_herald == net.no_herald
    assert abs(closed.success_probability - net.success_probability) <= ORACLE_AGREEMENT_TOL
    assert abs(closed.p_loss - net.p_loss) <= ORACLE_AGREEMENT_TOL
    if not closed.no_herald:
        assert abs(closed.fidelity - net.fidelity) <= ORACLE_AGREEMENT_TOL


_HALF = (math.sqrt(0.5), math.sqrt(0.5))


# 400 draws reach v_attenuation = 0 at c = 1e-6, where success is ~1e-12:
# the new scheme's success written as 1 - p_loss - raw_h fails there. The
# examples are points where |r| rounds just above 1 and a result rounded
# above 1: cz_old's success, run_cz_old's fidelity, run_cz_new's fidelity.
@settings(max_examples=400, deadline=None, derandomize=True)
@example(
    p=CavityParams(c=0.0, delta_c=-0.5073478390316644, kappa_ratio=1.0, zeta=0.743411547921673),
    phi=0.0, att=1.0, photon=_HALF, atom=_HALF,
)
@example(
    p=CavityParams(c=0.0, delta_c=0.19987638195174195, kappa_ratio=1.0, zeta=0.7428301275223771),
    phi=0.0, att=1.0, photon=(1.0, 0.0), atom=(1.0, 0.0),
)
@example(
    p=CavityParams(c=0.0, delta_a=1e-38, kappa_ratio=1.0, zeta=0.35111608223046586),
    phi=0.0, att=1.0, photon=(1.0, 0.0), atom=_HALF,
)
@given(
    p=edge_cavity_params(),
    phi=edge_phases(),
    att=unit_or_edge(),
    photon=bloch_pairs(),
    atom=bloch_pairs(),
)
def test_gates_match_network_on_the_edges(p, phi, att, photon, atom):
    refl = reflection_lossy(p)
    s = JointState(*photon, *atom)
    _assert_agrees(
        cz_new_from_reflections(refl, p.zeta, s, phi=phi, v_attenuation=att),
        run_cz_new(refl, p.zeta, s, phi=phi, v_attenuation=att),
    )
    _assert_agrees(cz_old_from_reflections(refl, p.zeta, s), run_cz_old(refl, p.zeta, s))


def test_pair_above_unit_modulus_reaches_both_paths_bounded():
    # |r| = 1 + 1e-12 is accepted and stored as |r| = 1: the closed forms
    # reported success 1 + 2e-12, and the runners raised on the defect.
    # _assert_agrees also holds every number, success included, in [0, 1].
    refl = ReflectionPair.from_amplitudes(1.0 + 1e-12, -(1.0 + 1e-12))
    for s in (JointState(0.0, 1.0, 0.0, 1.0), JointState.equal_superposition()):
        _assert_agrees(cz_new_from_reflections(refl, 1.0, s), run_cz_new(refl, 1.0, s))
        _assert_agrees(cz_old_from_reflections(refl, 1.0, s), run_cz_old(refl, 1.0, s))


def _near_threshold(s0: float, s1: float, w: float) -> float:
    """The x in [0, 1] where a success s0 + (s1 - s0) x, linear in x, is
    a target log-spaced by w in [0, 1] from max(its lowest value,
    2 HERALD_TOL) to 1e-6; clipped to [0, 1] where it cannot get there."""
    if s1 == s0:
        return w
    lo = max(min(s0, s1), 2.0 * HERALD_TOL)
    target = lo * (1e-6 / lo) ** w
    return min(max((target - s0) / (s1 - s0), 0.0), 1.0)


def _qubit(population: float, phase: float) -> tuple:
    return math.sqrt(1.0 - population), cmath.exp(1j * phase) * math.sqrt(population)


# The states are constructed, not sampled: success is linear in the
# photon's b = |beta_p|^2 (new scheme) and in u = |beta_p|^2 |beta_a|^2
# (old scheme), so each draw solves for a success between HERALD_TOL and
# 1e-6. Each test fails with its scheme's success written as 1 - p_loss
# (minus raw_h), which cancels there.
@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    p=edge_cavity_params(),
    phi=edge_phases(),
    att=st.sampled_from([0.0, 1e-3]),
    w=st.floats(0.0, 1.0),
    photon_phase=edge_phases(),
    atom=bloch_pairs(),
)
def test_new_gate_matches_network_near_the_herald_threshold(p, phi, att, w, photon_phase, atom):
    refl = reflection_lossy(p)
    eps = p.zeta * abs(0.5 * (refl.r_c - refl.r_nc)) ** 2
    b = _near_threshold(att * att, eps, w)  # success = att^2 (1 - b) + eps b
    s = JointState(*_qubit(b, photon_phase), *atom)
    _assert_agrees(
        cz_new_from_reflections(refl, p.zeta, s, phi=phi, v_attenuation=att),
        run_cz_new(refl, p.zeta, s, phi=phi, v_attenuation=att),
    )


# The old scheme's success is tiny with a heralded fidelity of order 1
# only where both reflections are small: zeta = 1, c near 0 and critical
# coupling on resonance. Three independent edges rarely coincide, so half
# the draws are put at critical coupling on resonance.
@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    p=edge_cavity_params(zeta=1.0),
    critical=st.booleans(),
    w=st.floats(0.0, 1.0),
    split=st.floats(0.0, 1.0),
    photon_phase=edge_phases(),
    atom_phase=edge_phases(),
)
def test_old_gate_matches_network_near_the_herald_threshold(
    p, critical, w, split, photon_phase, atom_phase
):
    if critical:
        p = replace(p, kappa_ratio=0.5, delta_c=0.0)
    refl = reflection_lossy(p)
    s0 = abs(refl.r_nc) ** 2
    s1 = abs(refl.r_c) ** 2
    u = _near_threshold(s0, s1, w)  # success = s0 (1 - u) + s1 u
    bp = u**split  # |beta_p|^2 in [u, 1], so |beta_a|^2 = u / bp is too
    ba = min(u / bp, 1.0) if bp > 0.0 else 0.0
    s = JointState(*_qubit(bp, photon_phase), *_qubit(ba, atom_phase))
    _assert_agrees(cz_old_from_reflections(refl, p.zeta, s), run_cz_old(refl, p.zeta, s))


# the example heralds with probability ~7.6e-13, below HERALD_TOL
@settings(max_examples=100, deadline=None, derandomize=True)
@example(
    p1=CavityParams(c=4.0, kappa_ratio=1e-6), p2=CavityParams(c=3.0, kappa_ratio=1e-6),
    phi_1=0.0, phi_2=0.0,
)
@given(
    p1=edge_cavity_params(zeta=1.0),
    p2=edge_cavity_params(zeta=1.0),
    phi_1=edge_phases(),
    phi_2=edge_phases(),
)
def test_remote_chain_matches_closed_form_on_the_edges(p1, p2, phi_1, phi_2):
    r1, r2 = reflection_lossy(p1), reflection_lossy(p2)
    net = run_remote_new(r1, r2, phi_1, phi_2)
    # the kernel owns the herald probability, on points that herald and not
    _, p = _bell_new_core(r1.r_c, r1.r_nc, r2.r_c, r2.r_nc, cmath.exp(1j * (phi_2 - phi_1)))
    assert abs(p - net.herald_probability) <= ORACLE_AGREEMENT_TOL
    try:
        closed = atom_atom_new(TwoCavitySetup(p1, p2, phi_1, phi_2))
    except NoHeraldError:
        assert net.no_herald
        return
    assert not net.no_herald
    assert abs(net.fidelity_v - closed) <= ORACLE_AGREEMENT_TOL
    assert abs(net.fidelity_h - closed) <= ORACLE_AGREEMENT_TOL


def test_remote_chain_ideal_is_perfect():
    res = run_remote_new(ReflectionPair.ideal(), ReflectionPair.ideal())
    assert res.fidelity_v == pytest.approx(1.0, abs=1e-12)
    assert res.fidelity_h == pytest.approx(1.0, abs=1e-12)
    assert res.herald_probability == pytest.approx(1.0, abs=1e-12)
    assert res.prob_v == pytest.approx(0.5, abs=1e-12)
    assert not res.no_herald


def test_remote_chain_no_herald_has_no_fidelity():
    # nearly empty cavities: the herald probability is ~7.6e-13
    r1 = reflection_lossy(CavityParams(c=4.0, kappa_ratio=1e-6))
    r2 = reflection_lossy(CavityParams(c=3.0, kappa_ratio=1e-6))
    res = run_remote_new(r1, r2)
    assert res.no_herald
    assert res.fidelity_v is None and res.fidelity_h is None
    assert res.prob_v == res.prob_h == 0.0
    assert 0.0 < res.herald_probability < HERALD_TOL


def test_herald_and_measurement():
    st = prepare_photon_atom({"H": 0.6, "V": 0.8}, (1.0, 0.0))
    st = apply_pbs(st, "in", "h_arm", "v_arm")
    kept, prob = herald(st, {"h_arm"})
    assert prob == pytest.approx(0.36, abs=1e-12)
    assert kept.norm_sq() == pytest.approx(1.0, abs=1e-12)
    none_kept, p0 = herald(st, {"nowhere"})
    assert none_kept is None and p0 == 0.0
    projected, pv = measure_polarization(st, "v_arm", "V")
    assert pv == pytest.approx(0.64, abs=1e-12)
    assert projected.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_fidelity_against_traces_mode_sectors():
    # equal-weight coherent vs incoherent split across spatial sectors:
    # same per-sector overlaps, added as probabilities
    amps = {
        ("H", "out", ("m",), 0): complex(math.sqrt(0.5)),
        ("H", "out", ("x",), 0): complex(-math.sqrt(0.5)),
    }
    st = NetworkState(amps=amps)
    fid = fidelity_against(st, {("H", 0): 1.0}, "out")
    assert fid == pytest.approx(1.0, abs=1e-12)
    # a relative sign between sectors must not matter
    amps2 = dict(amps)
    amps2[("H", "out", ("x",), 0)] = complex(math.sqrt(0.5))
    fid2 = fidelity_against(NetworkState(amps=amps2), {("H", 0): 1.0}, "out")
    assert fid2 == pytest.approx(fid, abs=1e-12)
    # light on another path is not scored
    amps2[("H", "elsewhere", ("m",), 0)] = complex(1.0)
    assert fidelity_against(NetworkState(amps=amps2), {("H", 0): 1.0}, "out") == fid2


@pytest.mark.parametrize(
    "element",
    [
        lambda s: apply_pbs(s, "in", "a", "b"),
        lambda s: apply_hwp(s, "in"),
        lambda s: apply_qwp(s, "in"),
        lambda s: apply_phase(s, "in", 0.3),
        lambda s: apply_attenuator(s, "in", 0.5),
        lambda s: apply_scattering(s, "in", ReflectionPair.ideal()),
    ],
    ids=["pbs", "hwp", "qwp", "phase", "attenuator", "scattering"],
)
def test_every_element_checks_conservation(element):
    # optical norm 0.25 plus nothing discarded: each element refuses it
    st = NetworkState({("H", "in", (), 0): 0.5 + 0j})
    with pytest.raises(RuntimeError, match="probability bookkeeping violated"):
        element(st)


def test_prepare_validation():
    with pytest.raises(ValueError):
        prepare_photon_atom({"H": 1.0, "V": 1.0}, (1.0, 0.0))
    with pytest.raises(ValueError):
        prepare_photon_atom({"H": 1.0}, (1.0, 0.0, 0.0))  # not a power of two
    with pytest.raises(ValueError):
        prepare_photon_atom({"X": 1.0}, (1.0, 0.0))
    with pytest.raises(ValueError):
        apply_scattering(
            prepare_photon_atom({"H": 1.0}, (1.0, 0.0)),
            "in",
            ReflectionPair.ideal(),
            coupling="nonsense",
        )
    # the coupling name is checked before zeta
    with pytest.raises(ValueError, match="unknown coupling"):
        apply_scattering(
            prepare_photon_atom({"H": 1.0}, (1.0, 0.0)),
            "in",
            ReflectionPair.ideal(),
            zeta=1.5,
            coupling="nonsense",
        )
    with pytest.raises(ValueError, match=r"zeta must lie in \[0, 1\]"):
        apply_scattering(
            prepare_photon_atom({"H": 1.0}, (1.0, 0.0)), "in", ReflectionPair.ideal(), zeta=1.5
        )


def test_nan_fails_the_oracle_checks():
    nan = math.nan
    with pytest.raises(ValueError, match="must each be normalized"):
        prepare_photon_atom({"H": nan}, (1.0, 0.0))
    with pytest.raises(ValueError, match="must each be normalized"):
        prepare_photon_atom({"H": 1.0}, (nan, 0.0))
    # a NaN amplitude fails each element's conservation check
    st = NetworkState({("H", "in", (), 0): complex(nan)})
    with pytest.raises(RuntimeError, match="defect nan"):
        apply_hwp(st, "in")
    with pytest.raises(ValueError, match="phase must be finite"):
        run_cz_new(ReflectionPair.ideal(), 1.0, EQUAL, phi=nan)
    with pytest.raises(ValueError, match="phase must be finite"):
        run_cz_new(ReflectionPair.ideal(), 0.9, EQUAL, theta=math.inf)


def test_product_state_off_its_norm_is_refused():
    # photon and atom are each within 1e-12 of normalized, but their
    # product is 1.8e-12 off, above CONSERVATION_TOL: refused as raw input
    # rather than failing the first element's conservation check
    x = math.sqrt(1.0 + 0.9e-12)
    with pytest.raises(ValueError, match=r"product state norm is off by 1\.799e-12"):
        prepare_photon_atom({"H": x}, (0.0, x))
    with pytest.raises(ValueError, match="> CONSERVATION_TOL"):
        prepare_photon_atom({"H": x}, (0.0, 0.0, x, 0.0))
    # a JointState stores each qubit rescaled, so the runners never see it
    res = run_cz_old(ReflectionPair.ideal(), 1.0, JointState(0.0, x, x, 0.0))
    assert res.fidelity == 1.0
    assert res.success_probability == pytest.approx(1.0, abs=1e-15)
    # half the excess on each side still runs
    y = math.sqrt(1.0 + 0.45e-12)
    res = run_cz_old(ReflectionPair.ideal(), 1.0, JointState(0.0, y, y, 0.0))
    assert res.fidelity == pytest.approx(1.0, abs=1e-11)


@pytest.mark.parametrize(
    "runner, closed", [(run_cz_new, cz_new_from_reflections), (run_cz_old, cz_old_from_reflections)]
)
def test_runners_read_a_state_off_its_norm_as_normalized(runner, closed):
    # each pair 0.45e-12 off its norm: read as given, both runners returned
    # fidelity and success 1.0000000000008997
    y = math.sqrt(1.0 + 0.45e-12)
    state = JointState(0.0, y, y, 0.0)
    net = runner(ReflectionPair.ideal(), 1.0, state)
    ref = closed(ReflectionPair.ideal(), 1.0, state)
    assert net.fidelity <= 1.0 and net.success_probability <= 1.0
    assert net.fidelity == pytest.approx(ref.fidelity, abs=ORACLE_AGREEMENT_TOL)
    assert net.success_probability == pytest.approx(ref.success_probability, abs=1e-15)
    refl = reflection_lossy(CavityParams(c=3.0, delta_c=0.2, kappa_ratio=0.9, zeta=0.8))
    off = JointState(0.6 * y, 0.8j * y, 0.8 * y, -0.6 * y)
    exact = runner(refl, 0.8, JointState(0.6, 0.8j, 0.8, -0.6))
    assert runner(refl, 0.8, off).fidelity == pytest.approx(exact.fidelity, rel=1e-15)


# Attenuated points where little light survives, with the 40-digit mpmath
# value of raw_h / survival from the same reflection amplitudes and photon
# populations. (params, state, phi, theta, v_attenuation, survival, p_h)
MPMATH_P_H_REJECT = [
    # a random crosscheck point, with the bypass arm blocked
    (CavityParams(c=0.9902209964739452, delta_c=0.7251111487474002,
                  delta_a=-1.5004146964510205, kappa_ratio=0.8355549937862687,
                  zeta=0.0940679733584423),
     JointState(complex(0.9446248629622493, -0.32378889398272753),
                complex(-0.002139036030723889, -0.05329207194182648),
                complex(0.6426234982741271, 0.21057870697849412),
                complex(-0.7235234575322433, -0.13858374375725463)),
     1.6967919762627233, -1.1, 0.0, 0.0027309, 0.9897480588696375453866335),
    # near critical coupling, almost fully mode matched
    (CavityParams(c=0.01, delta_c=0.05, kappa_ratio=0.5, zeta=0.9999),
     JointState(0.6, 0.8j, 0.28 - 0.96j, 0.0),
     0.4, 0.7, 0.002, 0.0017531, 0.9642643949692279266055671),
]


@pytest.mark.parametrize("p, s, phi, theta, att, survival, expected", MPMATH_P_H_REJECT)
def test_p_h_reject_where_little_light_survives(p, s, phi, theta, att, survival, expected):
    # conditioned on survival, which each side sums from non-negative
    # terms; 1 - p_loss would be 1e-14 to 2e-13 off here
    refl = reflection_lossy(p)
    closed = cz_new_from_reflections(refl, p.zeta, s, phi=phi, v_attenuation=att)
    network = run_cz_new(refl, p.zeta, s, phi=phi, theta=theta, v_attenuation=att)
    assert 1.0 - closed.p_loss == pytest.approx(survival, rel=1e-4)
    assert closed.p_h_reject == pytest.approx(expected, rel=1e-15, abs=0.0)
    assert network.p_h_reject == pytest.approx(expected, rel=1e-15, abs=0.0)
