"""Atom-atom entanglement closed forms."""

import math
from dataclasses import replace

import numpy as np
import pytest

from cavsim import (
    CavityParams,
    NoHeraldError,
    ReflectionPair,
    TwoCavitySetup,
    atom_atom_new,
    atom_atom_old,
    reflection_lossy,
    two_atoms_one_cavity,
    two_atoms_one_cavity_from_reflections,
)
from cavsim.oracle import HERALD_TOL, run_remote_new

IDEAL_NODE = CavityParams(c=1e9)


def test_ideal_nodes_give_unit_fidelity():
    setup = TwoCavitySetup(IDEAL_NODE, IDEAL_NODE)
    assert atom_atom_new(setup) == pytest.approx(1.0, abs=1e-9)
    old = atom_atom_old(setup)
    assert old.phi_plus_fidelity == pytest.approx(1.0, abs=1e-9)
    assert old.psi_plus_fidelity == pytest.approx(1.0, abs=1e-9)


def test_identical_lossy_nodes_still_perfect_new():
    # the polarization herald filters the common error: identical
    # cavities and equal phases give exactly 1 whatever the loss
    for p in (
        CavityParams(c=2.0, kappa_ratio=0.85),
        CavityParams(c=0.7, delta_c=0.4, delta_a=-0.2, kappa_ratio=0.6),
    ):
        assert atom_atom_new(TwoCavitySetup(p, p)) == pytest.approx(1.0, abs=1e-12)


def test_identical_lossy_nodes_imperfect_old():
    p = CavityParams(c=2.0, kappa_ratio=0.85)
    old = atom_atom_old(TwoCavitySetup(p, p))
    assert old.phi_plus_fidelity < 0.999
    assert old.psi_plus_fidelity < 0.999


def test_phase_difference_cosine_law():
    p = CavityParams(c=4.0, kappa_ratio=0.916)
    for dphi in np.linspace(-3.0, 3.0, 13):
        fid = atom_atom_new(TwoCavitySetup(p, p, phi_1=0.0, phi_2=float(dphi)))
        assert fid == pytest.approx(0.5 * (1.0 + math.cos(dphi)), abs=1e-12)


def test_only_phase_difference_matters():
    p1 = CavityParams(c=3.0, kappa_ratio=0.9)
    p2 = CavityParams(c=7.0, delta_c=0.1, kappa_ratio=0.8)
    a = atom_atom_new(TwoCavitySetup(p1, p2, phi_1=0.2, phi_2=0.9))
    b = atom_atom_new(TwoCavitySetup(p1, p2, phi_1=-0.5, phi_2=0.2))
    assert a == pytest.approx(b, abs=1e-12)


def test_old_scheme_node_swap_symmetry():
    p1 = CavityParams(c=3.0, kappa_ratio=0.9)
    p2 = CavityParams(c=6.0, delta_c=0.2, delta_a=-0.1, kappa_ratio=0.85)
    a = atom_atom_old(TwoCavitySetup(p1, p2))
    b = atom_atom_old(TwoCavitySetup(p2, p1))
    assert a.phi_plus_fidelity == pytest.approx(b.phi_plus_fidelity, abs=1e-12)
    assert a.psi_plus_fidelity == pytest.approx(b.psi_plus_fidelity, abs=1e-12)
    assert a.phi_plus_weight == pytest.approx(b.phi_plus_weight, abs=1e-12)


def test_old_scheme_frozen_point():
    setup = TwoCavitySetup(
        CavityParams(c=3.0, kappa_ratio=0.9),
        CavityParams(c=6.0, delta_c=0.2, delta_a=-0.1, kappa_ratio=0.85),
    )
    res = atom_atom_old(setup)
    assert res.phi_plus_fidelity == pytest.approx(0.94379195265, abs=1e-11)
    assert res.psi_plus_fidelity == pytest.approx(0.946568816811, abs=1e-11)
    assert res.phi_plus_weight == pytest.approx(0.499388851315, abs=1e-11)
    assert res.phi_plus_weight + res.psi_plus_weight == pytest.approx(1.0, abs=1e-12)
    lo = min(res.phi_plus_fidelity, res.psi_plus_fidelity)
    hi = max(res.phi_plus_fidelity, res.psi_plus_fidelity)
    assert lo <= res.weighted_fidelity <= hi


def test_closed_forms_require_perfect_matching():
    good = CavityParams(c=4.0)
    bad = CavityParams(c=4.0, zeta=0.9)
    with pytest.raises(ValueError):
        TwoCavitySetup(good, bad)
    with pytest.raises(ValueError):
        TwoCavitySetup(bad, good)


def test_no_herald_when_contrast_vanishes():
    # kappa_ratio = 0: everything reflects with +1, no gate signal
    flat = CavityParams(c=5.0, kappa_ratio=0.0)
    with pytest.raises(NoHeraldError):
        atom_atom_new(TwoCavitySetup(flat, flat))


def test_no_herald_where_the_weight_is_exactly_zero():
    # without an atom r_c equals r_nc bit for bit: the herald weight is 0,
    # and the closed form must refuse it before dividing
    empty = CavityParams(c=0.0, kappa_ratio=0.9)
    refl = reflection_lossy(empty)
    assert refl.r_c == refl.r_nc
    with pytest.raises(NoHeraldError):
        atom_atom_new(TwoCavitySetup(empty, empty, 0.3, -0.2))


@pytest.mark.parametrize("kappa_ratio", [1e-6, 2e-6])
def test_no_herald_agrees_with_oracle(kappa_ratio):
    # nearly empty cavities put the herald probability (~0.76e-12 at
    # 1e-6, ~3e-12 at 2e-6) on either side of the one threshold
    p1 = CavityParams(c=4.0, kappa_ratio=kappa_ratio)
    p2 = CavityParams(c=3.0, kappa_ratio=kappa_ratio)
    net = run_remote_new(reflection_lossy(p1), reflection_lossy(p2))
    assert net.no_herald == (net.herald_probability < HERALD_TOL)
    if net.no_herald:
        with pytest.raises(NoHeraldError):
            atom_atom_new(TwoCavitySetup(p1, p2))
    else:
        fid = atom_atom_new(TwoCavitySetup(p1, p2))
        assert fid == pytest.approx(net.fidelity_v, abs=1e-10)
        assert fid == pytest.approx(net.fidelity_h, abs=1e-10)


def test_two_atoms_one_cavity_frozen_points():
    p = CavityParams(c=4.0, kappa_ratio=0.916)
    res = two_atoms_one_cavity(p)
    assert res.fidelity == pytest.approx(0.999634652481, abs=1e-11)
    assert res.p_loss == pytest.approx(0.351201185185, abs=1e-11)
    res92 = two_atoms_one_cavity(replace(p, zeta=0.92))
    assert res92.p_loss == pytest.approx(0.32310509037, abs=1e-11)
    # perfect mirrors: only mismatch degrades the state, and it does so
    # by exactly (1 - zeta) * 3/4
    mm = two_atoms_one_cavity_from_reflections(ReflectionPair.ideal(), 0.92)
    assert mm.fidelity == pytest.approx(0.94, abs=1e-15)
    assert mm.p_loss == 0.0


def test_two_atoms_one_cavity_ideal():
    res = two_atoms_one_cavity_from_reflections(ReflectionPair.ideal(), 1.0)
    assert res.fidelity == 1.0
    assert res.p_loss == 0.0


def test_two_atoms_one_cavity_total_loss():
    dark = ReflectionPair.from_amplitudes(0.0, 0.0)
    with pytest.raises(NoHeraldError):
        two_atoms_one_cavity_from_reflections(dark, 1.0)
    with pytest.raises(ValueError):
        two_atoms_one_cavity_from_reflections(dark, 1.5)
