"""Experiment-reproduction reports and the arm-balancing helper."""

import math

import pytest

from cavsim import (
    CavityParams,
    JointState,
    balance_report,
    experiment_1,
    experiment_2,
    loss_balance,
    multiphoton_throughput,
    run_all,
    throughput_report,
)
from cavsim.validate import BALANCE_PARAMS, CheckResult, ValidationReport


def test_experiment_1_report():
    rep = experiment_1()
    assert rep.passed
    by_name = {c.name: c for c in rep.checks}
    assert by_name["gate fidelity"].value == pytest.approx(0.902191, abs=1e-6)
    assert by_name["success probability"].value == pytest.approx(0.694456, abs=1e-6)
    assert by_name["fidelity minus non-gate error budget"].reference == 0.807


def test_experiment_2_report():
    rep = experiment_2()
    assert rep.passed
    values = [c.value for c in rep.checks]
    assert values[0] == pytest.approx(0.999635, abs=1e-6)
    assert values[1] == pytest.approx(0.323105, abs=1e-6)
    assert values[2] == pytest.approx(0.94, abs=1e-15)


def test_balance_report():
    rep = balance_report()
    assert rep.passed
    # both computation paths quote the same published display values
    amps = [c.value for c in rep.checks[:4]]
    assert amps[0] == pytest.approx(0.548333, abs=1e-5)
    assert amps[1] == pytest.approx(0.446465, abs=1e-5)
    assert amps[2] == pytest.approx(amps[0], abs=1e-10)
    assert amps[3] == pytest.approx(amps[1], abs=1e-10)


def test_loss_balance_equalizes_and_reaches_unit_fidelity():
    att, res = loss_balance(BALANCE_PARAMS, JointState.equal_superposition())
    assert 0.0 < att < 1.0
    assert res.v_amplitude == pytest.approx(res.h_amplitude, abs=1e-12)
    # on resonance with perfect matching the balanced gate is exact
    assert res.fidelity == pytest.approx(1.0, abs=1e-12)
    # the attenuator costs success probability
    assert res.success_probability < 0.9 * (1.0 - res.p_h_reject)


def test_loss_balance_near_ideal_cavity_is_a_no_op():
    p = CavityParams(c=1e9)
    att, res = loss_balance(p, JointState.equal_superposition())
    assert att == pytest.approx(1.0, abs=1e-6)
    assert res.fidelity == pytest.approx(1.0, abs=1e-6)


def test_loss_balance_rejects_zero_contrast():
    with pytest.raises(ValueError):
        loss_balance(CavityParams(c=5.0, kappa_ratio=0.0), JointState.equal_superposition())


def test_throughput():
    assert multiphoton_throughput(0.13, 0.55, 0.70) == pytest.approx(
        0.13 * math.exp(-0.13) * 0.55 * 0.70, abs=1e-15
    )
    assert multiphoton_throughput(0.13, 0.0, 0.9) == 0.0
    with pytest.raises(ValueError):
        multiphoton_throughput(-0.1, 0.5, 0.5)
    with pytest.raises(ValueError):
        multiphoton_throughput(0.1, 1.5, 0.5)
    for p_success in (2.0, -0.1, math.nan):
        with pytest.raises(ValueError, match="p_success must lie in"):
            multiphoton_throughput(0.13, 0.55, p_success)
    rep = throughput_report()
    assert rep.passed


def test_run_all_passes():
    reports = run_all()
    assert len(reports) == 4
    assert all(r.passed for r in reports)


def test_check_result_modes():
    ok = CheckResult("x", 1.005, 1.0, 0.01)
    assert ok.passed
    assert not CheckResult("x", 1.02, 1.0, 0.01).passed
    assert CheckResult("x", 2.0, 1.0, 0.0, mode="at_least").passed
    assert not CheckResult("x", 0.5, 1.0, 0.0, mode="at_least").passed
    with pytest.raises(ValueError):
        CheckResult("x", 1.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        CheckResult("x", 1.0, 1.0, 0.1, mode="roughly")
    line = ok.line()
    assert line.startswith("PASS") and "x" in line


def test_report_serialization():
    rep = ValidationReport("demo", (CheckResult("a", 1.0, 1.0, 0.1),))
    d = rep.to_dict()
    assert d["passed"] is True
    assert d["checks"][0]["name"] == "a"
    assert rep.lines()[0] == "[demo]"
