"""Acceptance gate: every release criterion as one test, so that
`pytest -v tests/test_acceptance.py` prints one pass/fail line per
criterion. Tolerances and runtime budgets are pinned here and must not
be loosened to make a failing build pass."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from cavsim import (
    CavityParams,
    JointState,
    ReflectionPair,
    avg_fidelity_new,
    avg_fidelity_old,
    avg_success,
    cz_new,
    cz_old,
    standard_fluctuation_spec,
    loss_balance,
    mc_infidelity_curve,
    multiphoton_throughput,
    reflection_lossy,
    run_cz_new,
    run_cz_old,
    two_atoms_one_cavity,
    two_atoms_one_cavity_from_reflections,
)
from cavsim.analytic import cz_new_from_reflections, cz_old_from_reflections
from cavsim.cli import main
from cavsim.oracle import (
    apply_attenuator,
    apply_pbs,
    apply_phase,
    apply_scattering,
    prepare_photon_atom,
)
from conftest import random_cavity_params, random_joint_state, random_qubit_pair

EQUAL = JointState.equal_superposition()
BASELINE = CavityParams(c=4.0, kappa_ratio=0.916, zeta=0.92)


def test_c01_single_atom_experiment_reproduction():
    start = time.monotonic()
    res = cz_old(
        CavityParams(c=3.0, delta_c=0.12, delta_a=0.0996, kappa_ratio=0.92, zeta=0.92),
        EQUAL,
    )
    assert res.fidelity == pytest.approx(0.90, abs=0.01)
    assert res.success_probability == pytest.approx(0.69, abs=0.01)
    assert time.monotonic() - start < 1.0


def test_c02_two_atom_experiment_reproduction():
    start = time.monotonic()
    point = CavityParams(c=4.0, kappa_ratio=0.916, zeta=0.92)
    detected = two_atoms_one_cavity(replace(point, zeta=1.0))
    assert detected.fidelity == pytest.approx(0.9996, abs=5e-4)
    assert two_atoms_one_cavity(point).p_loss == pytest.approx(0.323, abs=5e-3)
    mismatch_only = two_atoms_one_cavity_from_reflections(ReflectionPair.ideal(), 0.92)
    assert mismatch_only.fidelity == pytest.approx(0.94, abs=1e-15)
    assert time.monotonic() - start < 1.0


def test_c03_heralded_output_amplitudes():
    start = time.monotonic()
    point = CavityParams(c=4.0, kappa_ratio=0.916, zeta=1.0)
    s = math.sqrt(0.5)  # quoted against unnormalized (|0> +/- |1>) kets
    analytic = cz_new(point, EQUAL)
    network = run_cz_new(reflection_lossy(point), 1.0, EQUAL)
    for res in (analytic, network):
        assert res.v_amplitude * s == pytest.approx(0.548333, abs=1e-5)
        assert res.h_amplitude * s == pytest.approx(0.446465, abs=1e-5)
    assert time.monotonic() - start < 1.0


def test_c04_error_sensitivity_deltas():
    start = time.monotonic()
    drops = {}
    for scheme, avg in (("new", avg_fidelity_new), ("old", avg_fidelity_old)):
        drops[scheme, "zeta"] = avg(replace(BASELINE, zeta=1.0)) - avg(
            replace(BASELINE, zeta=0.8)
        )
        drops[scheme, "kr"] = avg(replace(BASELINE, kappa_ratio=1.0)) - avg(
            replace(BASELINE, kappa_ratio=0.7)
        )
    assert drops["old", "zeta"] == pytest.approx(0.15, abs=0.01)
    assert drops["new", "zeta"] == pytest.approx(0.04, abs=0.01)
    assert drops["old", "kr"] == pytest.approx(0.124, abs=0.01)
    assert drops["new", "kr"] == pytest.approx(0.037, abs=0.01)
    assert time.monotonic() - start < 10.0


def test_c05_multiphoton_throughput():
    p_old = avg_success(BASELINE, "old")
    p_new = avg_success(BASELINE, "new")
    assert p_old == pytest.approx(0.70, abs=0.02)
    assert p_new == pytest.approx(0.80, abs=0.02)
    assert multiphoton_throughput(0.13, 0.55, p_old) == pytest.approx(0.044, abs=0.002)
    assert multiphoton_throughput(0.13, 0.55, p_new) == pytest.approx(0.050, abs=0.002)


def test_c06_fluctuation_infidelity_bands():
    start = time.monotonic()
    spec = replace(standard_fluctuation_spec(trials=10_000, seed=424242), window=1)
    grid = np.linspace(1.0, 10.0, 31)
    new = mc_infidelity_curve(spec, "new", grid)
    old = mc_infidelity_curve(spec, "old", grid)
    for mean in new.means:
        assert 0.001 < mean < 0.006
    for x, mean in zip(old.xs, old.means):
        if x >= 3.0:
            assert 0.01 < mean < 0.04
    assert time.monotonic() - start < 60.0


def test_c07_interferometer_phase_noise_bands():
    start = time.monotonic()
    grid = np.linspace(1.0, 10.0, 31)

    def curve(sigma_phi):
        spec = standard_fluctuation_spec(trials=10_000, seed=424243, sigma_phi=sigma_phi)
        return mc_infidelity_curve(replace(spec, window=1), "new", grid)

    small = curve(0.1)
    assert max(small.means) < 0.01
    large = curve(0.3)
    beyond = [m for x, m in zip(large.xs, large.means) if x > 5.0]
    assert max(beyond) > 0.04  # exceeds the older scheme's band
    assert time.monotonic() - start < 60.0


def test_c08_network_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(515151)
    for i in range(5000):
        p = random_cavity_params(rng)
        refl = reflection_lossy(p)
        s = random_joint_state(rng)
        phi = float(rng.uniform(-7, 7))
        a = cz_new_from_reflections(refl, p.zeta, s, phi=phi)
        b = run_cz_new(refl, p.zeta, s, phi=phi)
        assert a.no_herald == b.no_herald
        assert abs(a.success_probability - b.success_probability) < 1e-10
        if not a.no_herald:
            assert abs(a.fidelity - b.fidelity) < 1e-10
        c = cz_old_from_reflections(refl, p.zeta, s)
        d = run_cz_old(refl, p.zeta, s)
        assert c.no_herald == d.no_herald
        assert abs(c.success_probability - d.success_probability) < 1e-10
        if not c.no_herald:
            assert abs(c.fidelity - d.fidelity) < 1e-10
    # probability bookkeeping along an explicit element chain
    st = prepare_photon_atom({"H": 0.6, "V": 0.8j}, (0.8, 0.6))
    for step in (
        lambda s: apply_pbs(s, "in", "cav", "byp"),
        lambda s: apply_phase(s, "byp", 0.7),
        lambda s: apply_attenuator(s, "byp", 0.9),
        lambda s: apply_scattering(
            s, "cav", reflection_lossy(BASELINE), zeta=0.92, theta=0.3
        ),
    ):
        st = step(st)
        assert st.conservation_defect() <= 1e-12
    assert time.monotonic() - start < 60.0


def test_c09_ideal_limit_identities():
    ideal = CavityParams(c=1e9, delta_c=0.0, delta_a=0.0, kappa_ratio=1.0, zeta=1.0)
    for res in (cz_new(ideal, EQUAL), cz_old(ideal, EQUAL)):
        assert res.fidelity == pytest.approx(1.0, abs=1e-6)
        assert res.success_probability == pytest.approx(1.0, abs=1e-6)
    assert avg_fidelity_new(ideal) == pytest.approx(1.0, abs=1e-6)
    assert avg_fidelity_old(ideal) == pytest.approx(1.0, abs=1e-6)
    assert avg_success(ideal, "new") == pytest.approx(1.0, abs=1e-6)
    assert avg_success(ideal, "old") == pytest.approx(1.0, abs=1e-6)

    # the MZI gate's fidelity cannot depend on the atomic amplitudes
    rng = np.random.default_rng(626262)
    p = CavityParams(c=2.5, delta_c=0.3, delta_a=-0.4, kappa_ratio=0.85, zeta=0.9)
    ap, bp = random_qubit_pair(rng)
    ref = cz_new(p, JointState(ap, bp, 1.0, 0.0)).fidelity
    for _ in range(100):
        aa, ba = random_qubit_pair(rng)
        fid = cz_new(p, JointState(ap, bp, aa, ba)).fidelity
        assert abs(fid - ref) < 1e-12


def test_c10_monte_carlo_byte_determinism(tmp_path, capsys):
    args = ["mc", "--scheme", "both", "--trials", "1000", "--points", "20",
            "--seed", "31337"]
    assert main(args + ["--out", str(tmp_path / "run1")]) == 0
    assert main(args + ["--out", str(tmp_path / "run2")]) == 0
    capsys.readouterr()
    for name in ("mc_new.csv", "mc_new.json", "mc_old.csv", "mc_old.json"):
        first = (tmp_path / "run1" / name).read_bytes()
        second = (tmp_path / "run2" / name).read_bytes()
        assert first == second
