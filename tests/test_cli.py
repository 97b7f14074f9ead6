"""CLI behavior: flag/config merging, exit codes, file formats and
byte-level determinism."""

import json
import os
import platform
import subprocess
import sys
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from cavsim import cli, montecarlo
from cavsim import FluctuationSpec, GateResult, mc_infidelity_curve, sweep_1d, CavityParams
from cavsim.cli import (
    _AXIS_RANGES,
    _GATE_DEFAULTS,
    EXIT_CONFIG_ERROR,
    EXIT_NO_HERALD,
    EXIT_VALIDATION_FAILED,
    main,
)


def test_gate_old_scheme_reference_point(capsys):
    code = main(
        "gate --scheme old --zeta 0.92 --c 3 --dc 0.12 --da 0.0996 --kr 0.92".split()
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "fidelity 0.902190532985" in out
    assert "success_probability 0.694455606361" in out


def test_gate_ideal_with_oracle(capsys):
    code = main("gate --scheme new --c 1e9 --kr 1 --zeta 1 --oracle".split())
    assert code == 0
    out = capsys.readouterr().out
    assert "fidelity 1\n" in out
    assert "oracle_max_deviation" in out


def test_gate_oracle_agrees_where_success_is_1e_12(capsys):
    # the bypass arm is blocked and the cavity arm all but absorbs the
    # photon: success is 1.2e-12, which a difference of O(1) terms
    # carried with a relative error of ~1e-4
    code = main(
        ["gate", "--scheme", "new", "--c", "1e-6", "--kr", "0.7140266421059568",
         "--zeta", "0.8930073155642367", "--v-attenuation", "0", "--alpha-p", "0.6",
         "--beta-p", "0.8j", "--oracle", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert 1e-12 < doc["result"]["success_probability"] < 1.2e-12
    assert doc["oracle_max_deviation"] < 1e-10


def test_gate_json_round_trip(capsys):
    code = main(
        "gate --scheme new --c 4 --kr 0.916 --oracle --format json".split()
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scheme"] == "new"
    assert doc["result"]["fidelity"] == pytest.approx(0.98962289297, abs=1e-10)
    assert doc["oracle"]["fidelity"] == pytest.approx(doc["result"]["fidelity"], abs=1e-10)
    assert doc["oracle_max_deviation"] < 1e-10


def test_gate_custom_state(capsys):
    code = main(
        ["gate", "--scheme", "new", "--c", "6", "--alpha-p", "0.6", "--beta-p", "0.8j",
         "--format", "json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["state"]["alpha_p"].startswith("0.6")
    assert doc["result"]["fidelity"] < 1.0


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "point.json"
    cfg.write_text(json.dumps({"c": 3.0, "zeta": 0.92, "delta_c": 0.12,
                               "delta_a": 0.0996, "kappa_ratio": 0.92}))
    code = main(["gate", "--scheme", "old", "--config", str(cfg), "--format", "json"])
    assert code == 0
    base = json.loads(capsys.readouterr().out)
    assert base["result"]["fidelity"] == pytest.approx(0.902190532985, abs=1e-10)

    # the flag wins over the file
    code = main(["gate", "--scheme", "old", "--config", str(cfg), "--zeta", "1",
                 "--format", "json"])
    assert code == 0
    overridden = json.loads(capsys.readouterr().out)
    assert overridden["params"]["zeta"] == 1
    assert overridden["result"]["fidelity"] > base["result"]["fidelity"]


def test_unknown_config_key_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"c": 3.0, "cooperativity": 5.0}))
    code = main(["gate", "--scheme", "new", "--config", str(cfg)])
    assert code == EXIT_CONFIG_ERROR
    assert "unknown keys" in capsys.readouterr().err


def test_key_error_is_a_bug_not_a_config_error(monkeypatch):
    # no config or flag value raises KeyError, so one is a bug and escapes main
    def broken(*args, **kwargs):
        raise KeyError("x")

    monkeypatch.setattr(cli, "_merged_config", broken)
    with pytest.raises(KeyError):
        main("gate --scheme new".split())


def test_out_of_range_parameter_is_a_config_error(capsys):
    assert main("gate --scheme new --zeta 1.5".split()) == EXIT_CONFIG_ERROR
    capsys.readouterr()


def test_no_herald_exit_code(capsys):
    code = main(
        ["gate", "--scheme", "new", "--c", "0", "--alpha-p", "0", "--beta-p", "1"]
    )
    assert code == EXIT_NO_HERALD
    assert "heralds nothing" in capsys.readouterr().err


def test_oracle_no_herald_is_a_validation_failure(monkeypatch, capsys):
    # the closed form heralds but the oracle does not: report, don't crash
    def no_herald_oracle(*args, **kwargs):
        return GateResult(None, 0.0, 1.0, 0.0, no_herald=True)

    # cmd_gate imports the oracle only under --oracle, and looks it up there
    monkeypatch.setattr("cavsim.oracle.run_cz_new", no_herald_oracle)
    code = main("gate --scheme new --c 4 --kr 0.916 --oracle".split())
    assert code == EXIT_VALIDATION_FAILED
    assert "oracle heralds nothing" in capsys.readouterr().err


def test_oracle_deviation_is_a_validation_failure(monkeypatch, capsys, tmp_path):
    from cavsim import oracle

    real_oracle = oracle.run_cz_new

    def deviating_oracle(*args, **kwargs):
        res = real_oracle(*args, **kwargs)
        return replace(res, fidelity=res.fidelity - 1e-9)

    monkeypatch.setattr("cavsim.oracle.run_cz_new", deviating_oracle)
    out = tmp_path / "out"
    code = main(f"gate --scheme new --c 4 --kr 0.916 --oracle --out {out}".split())
    assert code == EXIT_VALIDATION_FAILED
    assert "oracle deviates from the closed form by 1.000e-09" in capsys.readouterr().err
    assert not (out / "gate.json").exists()


def test_sweep_where_almost_nothing_reflects_exits_0(tmp_path, capsys):
    # critical coupling at vanishing C: the old scheme heralds only for
    # u = |beta_p|^2 |beta_a|^2 >= 0.25, and its average is still exact
    code = main(
        ["sweep", "--scheme", "both", "--axis", "c", "--min", "1e-6", "--max", "1",
         "--points", "2", "--kr", "0.5", "--zeta", "1", "--format", "json",
         "--out", str(tmp_path)]
    )
    assert code == 0
    assert capsys.readouterr().err == ""
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "sweep_c_fidelity_new.json", "sweep_c_fidelity_old.json"
    ]
    doc = json.loads((tmp_path / "sweep_c_fidelity_old.json").read_text())
    # 40-digit mpmath: 0.47357735277840373459
    assert doc["rows"][0][:2] == [1e-6, 0.473577352778]


def test_sweep_both_with_zeta_out_of_range_exits_2_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["sweep", "--axis", "zeta", "--scheme", "both", "--min", "0.5", "--max", "1.5",
                 "--out", str(out)])
    assert code == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == "error: zeta must lie in [0, 1]\n"
    assert not out.exists()


@pytest.mark.parametrize("scheme", ["old", "both"])
def test_sweep_point_where_the_old_scheme_heralds_nowhere_exits_3(scheme, tmp_path, capsys):
    # C = 0 at critical coupling (kappa_ratio 0.5, mid-grid) reflects nothing
    out = tmp_path / "out"
    code = main(["sweep", "--axis", "kappa_ratio", "--scheme", scheme, "--min", "0",
                 "--max", "1", "--points", "3", "--c", "0", "--zeta", "1", "--out", str(out)])
    assert code == EXIT_NO_HERALD
    assert capsys.readouterr().err == "error: gate heralds nowhere on the Bloch sphere\n"
    assert not out.exists()


def test_sweep_where_the_gate_barely_acts_exits_0(tmp_path, capsys):
    # the gate barely acts here; the new scheme's average is exact, so it cannot fail
    code = main(
        ["sweep", "--axis", "zeta", "--scheme", "new", "--c", "3.3766", "--dc", "-0.398",
         "--da", "0.257", "--kr", "0.00019", "--format", "json", "--out", str(tmp_path)]
    )
    assert code == 0
    doc = json.loads((tmp_path / "sweep_zeta_fidelity_new.json").read_text())
    assert all(0.5 <= mean <= 0.501 for _x, mean, _err in doc["rows"])


@pytest.mark.parametrize("command", ["sweep --scheme new --axis zeta", "mc --scheme new"])
def test_points_above_bound_exit_2_before_allocating(command, tmp_path, capsys, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was allocated")

    # both commands build their grid through the one builder they import
    monkeypatch.setattr(cli, "_linspace", no_grid)
    code = main(command.split() + ["--points", str(10**9), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG_ERROR
    assert "1000000" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# (0, 5e-324) at 3 points and (0, 1e-321) at 1001: the step underflows
# to 0 and numpy scales i / (n - 1) by the width instead; 500 and 2000
# points on [1, 10] are mc's default and finest grids
@pytest.mark.parametrize(
    "lo, hi", [*_AXIS_RANGES.values(), (-3.7, 11.3), (0.0, 1e-321), (0.0, 5e-324)]
)
@pytest.mark.parametrize("n", [1, 2, 3, 500, 1001, 2000])
def test_sweep_grid_is_np_linspace_bit_for_bit(lo, hi, n):
    expected = [float(x).hex() for x in np.linspace(lo, hi, n)]
    assert [x.hex() for x in montecarlo._linspace(lo, hi, n)] == expected


def test_sweep_grid_reaches_the_zero_step_branch():
    assert (1e-321 - 0.0) / 1000 == 0.0 and (5e-324 - 0.0) / 2 == 0.0
    # a zero step would leave every point but the last at lo
    assert 0.0 < montecarlo._linspace(0.0, 1e-321, 1001)[500] < 1e-321


def test_sweep_and_mc_build_their_grid_through_the_one_builder(tmp_path, capsys, monkeypatch):
    calls = []

    def spy(lo, hi, n):
        calls.append((lo, hi, n))
        return montecarlo._linspace(lo, hi, n)

    monkeypatch.setattr(cli, "_linspace", spy)
    assert main(["sweep", "--scheme", "new", "--axis", "c", "--points", "3",
                 "--out", str(tmp_path)]) == 0
    assert main(["mc", "--scheme", "new", "--points", "1", "--trials", "20",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert calls == [(1.0, 10.0, 3), (1.0, 10.0, 1)]


def test_sweep_files(tmp_path, capsys):
    code = main(
        ["sweep", "--scheme", "both", "--axis", "zeta", "--points", "11",
         "--out", str(tmp_path)]
    )
    assert code == 0
    for scheme in ("new", "old"):
        csv_path = tmp_path / f"sweep_zeta_fidelity_{scheme}.csv"
        json_path = tmp_path / f"sweep_zeta_fidelity_{scheme}.json"
        assert csv_path.exists() and json_path.exists()
        body = csv_path.read_bytes()
        assert b"\r" not in body
        lines = body.decode().splitlines()
        assert lines[0] == "x,mean,stderr"
        assert len(lines) == 12
    # values match the library call at the documented baseline
    doc = json.loads((tmp_path / "sweep_zeta_fidelity_new.json").read_text())
    direct = sweep_1d(
        CavityParams(c=4.0, kappa_ratio=0.916, zeta=0.92),
        "zeta", np.linspace(0.8, 1.0, 11), "new", "fidelity",
    )
    assert doc["rows"][3][1] == pytest.approx(direct.means[3], rel=1e-11)
    capsys.readouterr()


def test_mc_determinism_and_metadata_round_trip(tmp_path, capsys):
    args = ["mc", "--scheme", "new", "--trials", "300", "--points", "12",
            "--seed", "7", "--window", "1"]
    code = main(args + ["--out", str(tmp_path / "a")])
    assert code == 0
    code = main(args + ["--out", str(tmp_path / "b")])
    assert code == 0
    capsys.readouterr()
    for name in ("mc_new.csv", "mc_new.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    doc = json.loads((tmp_path / "a" / "mc_new.json").read_text())
    spec = FluctuationSpec(**{f.name: doc["metadata"][f.name] for f in fields(FluctuationSpec)})
    grid = np.array([row[0] for row in doc["rows"]])
    rerun = mc_infidelity_curve(spec, doc["metadata"]["scheme"], grid)
    for row, mean in zip(doc["rows"], rerun.means):
        assert row[1] == pytest.approx(mean, rel=1e-11, abs=1e-15)


def test_mc_spec_file_and_overrides(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"trials": 200, "seed": 11, "phi1_sigma": 0.1,
                                     "phi2_sigma": 0.1}))
    code = main(["mc", "--scheme", "new", "--spec", str(spec_file), "--points", "5",
                 "--out", str(tmp_path), "--format", "json"])
    assert code == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "mc_new.json").read_text())
    assert doc["metadata"]["trials"] == 200
    assert doc["metadata"]["phi1_sigma"] == 0.1
    assert not (tmp_path / "mc_new.csv").exists()  # json only

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"trails": 100}))
    code = main(["mc", "--scheme", "new", "--spec", str(bad)])
    assert code == EXIT_CONFIG_ERROR
    assert "unknown keys" in capsys.readouterr().err


def test_mc_thread_env_validation(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CAVSIM_THREADS", "soon")
    code = main(["mc", "--scheme", "new", "--trials", "50", "--points", "3",
                 "--out", str(tmp_path)])
    assert code == EXIT_CONFIG_ERROR
    capsys.readouterr()


_SRC = str(Path(cli.__file__).resolve().parents[1])


def _child_env() -> dict:
    env = {**os.environ, "CAVSIM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    return env


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the heap policy is glibc's mallopt",
)
def test_mc_grid_points_reuse_the_heap(tmp_path):
    # glibc gave each point's temporaries back to the OS and the next point
    # faulted them in again: ~500 minor faults per point at 10k trials
    import resource

    def minor_faults(points):
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        subprocess.run([sys.executable, "-m", "cavsim.cli", "mc", "--scheme", "both",
                        "--trials", "10000", "--points", str(points), "--out", "."],
                       cwd=tmp_path, env=_child_env(), capture_output=True, check=True)
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before

    per_point = (minor_faults(40) - minor_faults(10)) / 30
    assert per_point < 50


_BLAS_PROBE = """
import os, sys
from cavsim.cli import main
assert "numpy" not in sys.modules
assert main(sys.argv[1:]) == 0
print(os.environ["OPENBLAS_NUM_THREADS"])
"""


@pytest.mark.parametrize("given, expected", [(None, "1"), ("3", "3")])
def test_mc_asks_for_one_blas_thread_unless_told(tmp_path, given, expected):
    env = _child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    argv = ["mc", "--scheme", "new", "--points", "2", "--trials", "20", "--out", "."]
    proc = subprocess.run([sys.executable, "-c", _BLAS_PROBE, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == expected


def test_validate_command(tmp_path, capsys):
    code = main(["validate", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "validation PASSED" in out
    assert "FAIL" not in out
    doc = json.loads((tmp_path / "validation.json").read_text())
    assert doc["passed"] is True
    assert len(doc["reports"]) == 4


def test_mc_grid_point_without_herald_exits_3(tmp_path, capsys):
    # empty cavities (kappa_ratio 0 with no spread) never herald in the
    # new scheme; the run must fail, naming the new scheme's first failing
    # C, before any mc_* file is written
    spec_file = tmp_path / "dead.json"
    spec_file.write_text(json.dumps({
        "cavity1_kappa_ratio_mean": 0.0, "cavity1_kappa_ratio_sigma": 0.0,
        "cavity2_kappa_ratio_mean": 0.0, "cavity2_kappa_ratio_sigma": 0.0,
    }))
    out = tmp_path / "out"
    code = main(["mc", "--scheme", "both", "--spec", str(spec_file), "--points", "4",
                 "--trials", "50", "--out", str(out)])
    assert code == EXIT_NO_HERALD
    captured = capsys.readouterr()
    assert captured.err == "error: nothing heralds in any of the 50 trials at C = 1\n"
    assert captured.out == ""
    assert list(tmp_path.rglob("mc_*")) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        ("gate --scheme new --phi nan", "phi must be finite"),
        ("gate --scheme new --phi inf", "phi must be finite"),
        ("gate --scheme new --phi nan --format json", "phi must be finite"),
        ("gate --scheme new --v-attenuation nan", "v_attenuation must be finite"),
        ("mc --scheme new --cmax inf --points 3 --trials 10", "bad cooperativity range"),
    ],
    ids=["phi-nan", "phi-inf", "phi-nan-json", "v-attenuation-nan", "cmax-inf"],
)
def test_non_finite_option_is_a_config_error(tmp_path, capsys, argv, message):
    code = main(argv.split() + (["--out", str(tmp_path)] if argv.startswith("mc") else []))
    assert code == EXIT_CONFIG_ERROR
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flags, config, key",
    [("--phi 2.5", None, "phi"), ("--v-attenuation 0.1", None, "v_attenuation"),
     ("", '{"phi": 0.3}', "phi"), ("", '{"v_attenuation": 0.5}', "v_attenuation")],
    ids=["phi-flag", "v-attenuation-flag", "phi-config", "v-attenuation-config"],
)
def test_old_scheme_refuses_interferometer_options(tmp_path, capsys, flags, config, key):
    # the old scheme has no interferometer: these options were echoed and ignored
    argv = ["gate", "--scheme", "old", "--out", str(tmp_path / "out"), *flags.split()]
    if config is not None:
        (tmp_path / "point.json").write_text(config)
        argv += ["--config", str(tmp_path / "point.json")]
    assert main(argv) == EXIT_CONFIG_ERROR
    captured = capsys.readouterr()
    assert f"the old scheme has no interferometer: {key} must be" in captured.err
    assert captured.out == "" and not (tmp_path / "out").exists()
    # their defaults, given explicitly, still run
    assert main("gate --scheme old --phi 0 --v-attenuation 1".split()) == 0


def test_non_finite_phase_in_config_file_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "point.json"
    cfg.write_text('{"c": 4.0, "phi": NaN}')  # json.load accepts the NaN token
    code = main(["gate", "--scheme", "new", "--config", str(cfg)])
    assert code == EXIT_CONFIG_ERROR
    assert "phi must be finite" in capsys.readouterr().err


def test_mc_over_trials_bound_exits_2_before_drawing(tmp_path, capsys, monkeypatch):
    def no_draws(*args):
        raise AssertionError("a grid point was evaluated")

    monkeypatch.setattr(montecarlo, "_mc_block", no_draws)
    code = main(["mc", "--scheme", "both", "--trials", str(10**8), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG_ERROR
    assert "memory bound" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_mc_grid_that_could_overflow_exits_2_before_drawing(tmp_path, capsys, monkeypatch):
    # C near 1e308 made reflection_amplitudes warn "overflow encountered
    # in multiply" and exit 0; no grid point may be drawn now
    def no_draws(*args):
        raise AssertionError("a grid point was evaluated")

    monkeypatch.setattr(montecarlo, "_mc_block", no_draws)
    argv = ["mc", "--scheme", "both", "--cmin", "1", "--cmax", "1e308", "--points", "3",
            "--trials", "100", "--out", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    assert code == EXIT_CONFIG_ERROR
    assert "2 C overflows" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_mc_grid_just_inside_the_overflow_bound_runs_clean(tmp_path, capsys):
    # the bound admits C_max (1 + 14 sigma / mean) up to half the largest
    # float: 3.7e307 at the standard 10% sigma, where the draws stay finite
    argv = ["mc", "--scheme", "both", "--cmin", "1", "--cmax", "3.7e307", "--points", "3",
            "--trials", "2000", "--window", "1", "--out", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    capsys.readouterr()
    rows = json.loads((tmp_path / "mc_old.json").read_text())["rows"]
    assert all(np.isfinite(rows).all(axis=1))


@pytest.mark.parametrize(
    "spec, cmax, message",
    [
        # a delta_c sigma of 1e308 warned "overflow encountered in multiply"
        # and counted the NaN trials as skipped_no_herald
        ({"cavity1_delta_c_sigma": 1e308}, "10", "cavity1 C sigma/mean 0.1 and |delta_c|, "
         "|delta_a| up to inf, 0.7"),
        # within the C bound, but 2 C + delta_c delta_a overflowed in add
        ({"cavity1_c_sigma": 0.0, "cavity2_c_sigma": 0.0, "cavity1_delta_c_mean": 1e154,
          "cavity1_delta_a_mean": -1e154}, "8.988e307", "2 C + delta_c delta_a, 2 delta_a"),
        # 2 kappa_ratio delta_a overflowed in multiply
        ({"cavity2_delta_a_mean": 1e308}, "10", "cavity2 C sigma/mean 0.1 and |delta_c|, "
         "|delta_a| up to 0.7, 1e+308"),
        ({"cavity2_kappa_ratio_sigma": 1e308}, "10", "cavity2_kappa_ratio"),
        # phi2 - phi1 overflowed in subtract
        ({"phi1_mean": 1.7e308, "phi2_mean": -1.7e308}, "10", "difference overflows"),
    ],
    ids=["delta-c-sigma", "c-and-detunings", "delta-a", "kappa-ratio", "phases"],
)
def test_mc_draws_that_could_overflow_exit_2_before_drawing(
    tmp_path, capsys, monkeypatch, spec, cmax, message
):
    def no_draws(*args):
        raise AssertionError("a grid point was evaluated")

    monkeypatch.setattr(montecarlo, "_mc_block", no_draws)
    path = _write_config(tmp_path, spec)
    out = tmp_path / "out"
    argv = ["mc", "--scheme", "both", "--cmax", cmax, "--points", "3", "--trials", "100",
            "--spec", path, "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    assert code == EXIT_CONFIG_ERROR
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "spec",
    [
        {"cavity2_delta_c_mean": 1e154, "cavity2_delta_a_mean": -1.7e154},
        {"cavity1_delta_a_mean": 8.9e307},
        {"phi1_mean": 8.9e307, "phi2_mean": -8.9e307},
    ],
    ids=["delta-c-delta-a", "delta-a", "phases"],
)
def test_mc_draws_just_inside_the_overflow_bound_run_clean(tmp_path, capsys, spec):
    path = _write_config(tmp_path, spec)
    argv = ["mc", "--scheme", "both", "--points", "3", "--trials", "2000", "--window", "1",
            "--spec", path, "--out", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    capsys.readouterr()
    for name in ("mc_new.json", "mc_old.json"):
        rows = json.loads((tmp_path / name).read_text())["rows"]
        assert all(np.isfinite(rows).all(axis=1))


def _write_config(tmp_path, doc) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_sweep_rejects_gate_only_config_keys(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"phi": 1.0, "alpha_p": "0.6", "v_attenuation": 0.5})
    out = tmp_path / "out"
    code = main(["sweep", "--scheme", "new", "--axis", "zeta", "--points", "3",
                 "--config", cfg, "--out", str(out)])
    assert code == EXIT_CONFIG_ERROR
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: config {cfg}: unknown keys ['alpha_p', 'phi', 'v_attenuation']\n"
    )
    assert captured.out == ""
    assert not out.exists()


def test_sigma_phi_sets_only_the_phase_sigmas(tmp_path, capsys):
    spec = _write_config(tmp_path, {"phi1_mean": 0.3, "phi2_mean": -0.3, "phi1_sigma": 0.05})
    code = main(["mc", "--scheme", "new", "--spec", spec, "--sigma-phi", "0.1", "--points", "2",
                 "--trials", "50", "--format", "json", "--out", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().err == ""
    meta = json.loads((tmp_path / "mc_new.json").read_text())["metadata"]
    assert [meta[k] for k in ("phi1_mean", "phi1_sigma", "phi2_mean", "phi2_sigma")] == [
        0.3, 0.1, -0.3, 0.1
    ]


_WRONG_TYPES = {"null": None, "list": [1.0], "object": {"v": 1.0}, "true": True}
_TYPED_KEYS = [
    ("gate --scheme new --config", "c", "a number"),
    ("gate --scheme old --config", "phi", "a number"),
    ("sweep --scheme new --axis c --points 3 --config", "zeta", "a number"),
    ("mc --scheme new --points 2 --trials 50 --spec", "trials", "an integer"),
    ("mc --scheme new --points 2 --trials 50 --spec", "seed", "an integer"),
    ("mc --scheme new --points 2 --trials 50 --spec", "cavity1_c_mean", "a number"),
]


@pytest.mark.parametrize(
    "command, key, what, value",
    [(*typed, value) for typed in _TYPED_KEYS for value in _WRONG_TYPES.values()]
    + [("gate --scheme new --config", "alpha_p", "a complex amplitude or null", value)
       for value in ([1.0], {"v": 1.0}, True)]  # null is a valid amplitude
    + [("gate --scheme new --config", "c", "a number", 10**400)],  # float() overflows
    ids=[f"{typed[1]}-{kind}" for typed in _TYPED_KEYS for kind in _WRONG_TYPES]
    + ["alpha_p-list", "alpha_p-object", "alpha_p-true", "c-huge-integer"],
)
def test_config_value_of_wrong_type_exits_2(tmp_path, capsys, command, key, what, value):
    cfg = _write_config(tmp_path, {key: value})
    out = tmp_path / "out"
    code = main(command.split() + [cfg, "--out", str(out)])
    assert code == EXIT_CONFIG_ERROR
    captured = capsys.readouterr()
    assert captured.err == f"error: config {cfg}: {key} must be {what}, got {json.dumps(value)}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("window", 2.5), ("trials", 400.5), ("seed", 9.5)])
def test_non_integral_count_in_spec_exits_2(tmp_path, capsys, key, value):
    spec = _write_config(tmp_path, {key: value})
    out = tmp_path / "out"
    code = main(["mc", "--scheme", "new", "--spec", spec, "--points", "2", "--trials", "50",
                 "--out", str(out)])
    assert code == EXIT_CONFIG_ERROR
    captured = capsys.readouterr()
    assert captured.err == f"error: config {spec}: {key} must be an integer, got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "spec_json, message",
    [
        ('{"cavity2_delta_c_sigma": -0.1}', "cavity2_delta_c_sigma must be >= 0"),
        ('{"cavity1_kappa_ratio_mean": NaN}', "cavity1_kappa_ratio_mean must be finite, got nan"),
        ('{"phi2_sigma": Infinity}', "phi2_sigma must be finite, got inf"),
        ('{"cavity2_c_mean": "-4"}', "cavity2_c_mean must be positive"),
        ('{"trials": 4', "config {spec}: invalid JSON"),
        ("[1, 2]", "config {spec}: expected a flat JSON object"),
        (b'\xff\xfe{"trials": 4}', "config {spec}: invalid JSON ('utf-8' codec can't decode"),
    ],
    ids=["negative-sigma", "nan-mean", "inf-sigma", "negative-c-mean", "truncated", "list",
         "not-utf8"],
)
def test_bad_spec_value_exits_2_naming_the_key(tmp_path, capsys, spec_json, message):
    spec = tmp_path / "spec.json"
    # json.load accepts the NaN and Infinity tokens
    spec.write_bytes(spec_json if isinstance(spec_json, bytes) else spec_json.encode())
    out = tmp_path / "out"
    code = main(["mc", "--scheme", "new", "--spec", str(spec), "--points", "2", "--trials", "50",
                 "--out", str(out)])
    assert code == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.startswith(f"error: {message.format(spec=spec)}")
    assert not out.exists()


def _readme_json_block(section: str) -> dict:
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    body = readme.split(f"\n### {section}\n", 1)[1].split("\n### ", 1)[0]
    return json.loads(body.split("```json\n", 1)[1].split("```", 1)[0])


def test_readme_lists_the_config_keys_and_defaults():
    assert _readme_json_block("gate") == _GATE_DEFAULTS
    assert _readme_json_block("mc") == asdict(FluctuationSpec())
