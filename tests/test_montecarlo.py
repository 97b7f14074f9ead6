"""Fluctuation Monte Carlo: determinism, stream independence from
scheduling, clamp accounting, smoothing, and the deterministic sweeps."""

import csv
import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from cavsim import montecarlo
from cavsim import (
    CavityParams,
    FluctuationSpec,
    GaussianSpec,
    avg_fidelity_new,
    avg_fidelity_old,
    avg_success,
    default_c_grid,
    standard_fluctuation_spec,
    mc_infidelity_curve,
    mc_phase_noise,
    sweep_1d,
)
from cavsim.montecarlo import MAX_TRIALS_IN_FLIGHT, _n_threads, write_json

SMALL_GRID = np.linspace(1.0, 10.0, 16)


def _small_spec(trials=400, seed=99, window=1):
    spec = standard_fluctuation_spec(trials=trials, seed=seed)
    return FluctuationSpec(
        cavity1=spec.cavity1,
        cavity2=spec.cavity2,
        phi1=spec.phi1,
        phi2=spec.phi2,
        trials=trials,
        seed=seed,
        window=window,
    )


def test_repeat_runs_are_identical():
    spec = _small_spec()
    a = mc_infidelity_curve(spec, "new", SMALL_GRID)
    b = mc_infidelity_curve(spec, "new", SMALL_GRID)
    assert a.xs == b.xs
    assert a.means == b.means
    assert a.stderrs == b.stderrs
    assert a.metadata == b.metadata


def test_results_do_not_depend_on_thread_count(monkeypatch):
    spec = _small_spec()
    monkeypatch.setenv("CAVSIM_THREADS", "1")
    serial = mc_infidelity_curve(spec, "old", SMALL_GRID)
    monkeypatch.setenv("CAVSIM_THREADS", "4")
    threaded = mc_infidelity_curve(spec, "old", SMALL_GRID)
    assert serial.means == threaded.means
    assert serial.stderrs == threaded.stderrs


def test_bad_thread_env_rejected(monkeypatch):
    monkeypatch.setenv("CAVSIM_THREADS", "many")
    with pytest.raises(ValueError):
        mc_infidelity_curve(_small_spec(), "new", SMALL_GRID)
    monkeypatch.setenv("CAVSIM_THREADS", "0")
    with pytest.raises(ValueError):
        mc_infidelity_curve(_small_spec(), "new", SMALL_GRID)


def test_thread_count_capped_at_cpu_count(monkeypatch):
    # only the count is checked; no pool is started at this value
    monkeypatch.setenv("CAVSIM_THREADS", "1000000")
    assert _n_threads() == os.cpu_count()
    monkeypatch.setenv("CAVSIM_THREADS", "1")
    assert _n_threads() == 1


@pytest.mark.parametrize("threads", ["1", "2"])
def test_both_schemes_equal_separate_runs_bit_for_bit(monkeypatch, threads):
    # kappa_ratio ~ N(0.05, 0.1) clamps a third of the cavities to 0; where
    # both are, the new scheme heralds nothing, so its skip count is exercised
    monkeypatch.setenv("CAVSIM_THREADS", threads)
    base = replace(standard_fluctuation_spec(trials=400, seed=99, sigma_phi=0.2), window=3)
    leaky = replace(base.cavity1, kappa_ratio=GaussianSpec(0.05, 0.1))
    spec = replace(base, cavity1=leaky, cavity2=leaky)
    new, old = mc_infidelity_curve(spec, "both", SMALL_GRID)
    for shared, alone in ((new, mc_infidelity_curve(spec, "new", SMALL_GRID)),
                          (old, mc_infidelity_curve(spec, "old", SMALL_GRID))):
        assert shared.xs == alone.xs
        assert shared.means == alone.means
        assert shared.stderrs == alone.stderrs
        assert shared.metadata == alone.metadata
    assert new.metadata["scheme"] == "new" and old.metadata["scheme"] == "old"
    assert new.metadata["skipped_no_herald"] > 0
    assert new.metadata["clamped_kappa_ratio"] > 0


def test_both_schemes_reflect_each_cavity_once(monkeypatch):
    monkeypatch.setenv("CAVSIM_THREADS", "1")
    calls = []
    original = montecarlo.reflection_amplitudes

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(montecarlo, "reflection_amplitudes", counted)
    grid = np.linspace(1.0, 10.0, 5)
    mc_infidelity_curve(_small_spec(), "both", grid)
    assert len(calls) == 2 * grid.size


def test_trials_bound_stops_before_drawing(monkeypatch):
    def no_draws(*args):
        raise AssertionError("a grid point was evaluated")

    monkeypatch.setattr(montecarlo, "_mc_point", no_draws)
    monkeypatch.setenv("CAVSIM_THREADS", "1")
    with pytest.raises(ValueError, match="memory bound"):
        mc_infidelity_curve(_small_spec(trials=MAX_TRIALS_IN_FLIGHT + 1), "both", SMALL_GRID)
    # the bound is on trials x workers; only the count is checked, no pool starts
    monkeypatch.setattr(montecarlo, "_n_threads", lambda: 2)
    half = _small_spec(trials=MAX_TRIALS_IN_FLIGHT // 2 + 1)
    with pytest.raises(ValueError, match="memory bound"):
        mc_infidelity_curve(half, "new", SMALL_GRID)


def test_zero_phase_noise_matches_plain_curve():
    # the phase draws consume stream positions even at sigma = 0, so
    # the two entry points must agree bit for bit
    spec = _small_spec()
    plain = mc_infidelity_curve(spec, "new", SMALL_GRID)
    noisy = mc_phase_noise(spec, "new", 0.0, SMALL_GRID)
    assert plain.means == noisy.means
    assert plain.stderrs == noisy.stderrs


def test_phase_noise_hurts_new_scheme():
    spec = _small_spec(trials=2000)
    plain = mc_infidelity_curve(spec, "new", SMALL_GRID)
    noisy = mc_phase_noise(spec, "new", 0.3, SMALL_GRID)
    assert all(n > p for p, n in zip(plain.means, noisy.means))


def test_new_scheme_beats_old_under_fluctuations():
    spec = _small_spec(trials=2000)
    grid = np.linspace(3.0, 10.0, 8)
    new = mc_infidelity_curve(spec, "new", grid)
    old = mc_infidelity_curve(spec, "old", grid)
    for n, o in zip(new.means, old.means):
        assert n < o


def test_clamp_accounting():
    spec = _small_spec(trials=5000)
    res = mc_infidelity_curve(spec, "new", SMALL_GRID)
    draws = 2 * spec.trials * SMALL_GRID.size  # two cavities per trial
    # C sits 10 sigma from zero on this grid: the clamp must never fire
    assert res.metadata["clamped_c"] == 0
    # kappa_ratio ~ N(0.9, 0.05) has ~2.3% of its mass above 1
    frac = res.metadata["clamped_kappa_ratio"] / draws
    assert 0.01 < frac < 0.04
    assert res.metadata["skipped_no_herald"] == 0


def test_moving_average_window():
    spec_raw = _small_spec(window=1)
    spec_smooth = _small_spec(window=5)
    raw = mc_infidelity_curve(spec_raw, "new", SMALL_GRID)
    smooth = mc_infidelity_curve(spec_smooth, "new", SMALL_GRID)
    n = len(raw.means)
    for i in range(n):
        lo = max(0, i - 2)
        hi = min(n, i + 3)
        assert smooth.means[i] == pytest.approx(np.mean(raw.means[lo:hi]), abs=1e-15)
        expect_err = math.sqrt(sum(e * e for e in raw.stderrs[lo:hi])) / (hi - lo)
        assert smooth.stderrs[i] == pytest.approx(expect_err, abs=1e-15)


def test_metadata_reconstructs_run():
    spec = _small_spec()
    res = mc_infidelity_curve(spec, "new", SMALL_GRID)
    rebuilt_spec = FluctuationSpec.from_flat_dict(res.metadata)
    rebuilt = mc_infidelity_curve(rebuilt_spec, res.metadata["scheme"], np.array(res.xs))
    assert rebuilt.means == res.means
    assert rebuilt.stderrs == res.stderrs


def test_flat_dict_round_trip():
    spec = standard_fluctuation_spec(trials=777, seed=12345, sigma_phi=0.2)
    assert FluctuationSpec.from_flat_dict(spec.to_flat_dict()) == spec


def test_spec_validation():
    with pytest.raises(ValueError):
        standard_fluctuation_spec(trials=0)
    with pytest.raises(ValueError):
        GaussianSpec(0.0, -0.1)
    with pytest.raises(ValueError):
        standard_fluctuation_spec(sigma_phi=float("nan"))
    spec = standard_fluctuation_spec()
    with pytest.raises(ValueError):
        mc_infidelity_curve(spec, "fancy", SMALL_GRID)
    with pytest.raises(ValueError):
        mc_infidelity_curve(spec, "new", np.array([]))
    with pytest.raises(ValueError):
        mc_infidelity_curve(spec, "new", np.array([0.0, 1.0]))


def test_default_grid():
    grid = default_c_grid()
    assert grid.size == 500
    assert grid[0] == 1.0 and grid[-1] == 10.0


def test_csv_and_json_serialization(tmp_path):
    res = mc_infidelity_curve(_small_spec(), "new", np.linspace(1, 3, 5))
    csv_path = tmp_path / "curve.csv"
    json_path = tmp_path / "curve.json"
    res.to_csv(csv_path)
    res.to_json(json_path)

    raw = csv_path.read_bytes()
    assert b"\r" not in raw  # LF only
    with csv_path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "mean", "stderr"]
    assert len(rows) == 6
    assert float(rows[1][0]) == 1.0

    doc = json.loads(json_path.read_text())
    assert doc["columns"] == ["x", "mean", "stderr"]
    assert len(doc["rows"]) == 5
    # 12 significant digits survive the file boundary
    assert doc["rows"][0][1] == pytest.approx(res.means[0], rel=1e-11)
    assert doc["metadata"]["seed"] == 99


def test_write_json_rejects_nan(tmp_path):
    with open(tmp_path / "bad.json", "w") as fh:
        with pytest.raises(ValueError):
            write_json({"mean": math.nan}, fh)
    assert (tmp_path / "bad.json").read_bytes() == b""


# ---------------------------------------------------------------------------
# deterministic sweeps
# ---------------------------------------------------------------------------

BASELINE = CavityParams(c=4.0, kappa_ratio=0.916, zeta=0.92)


def test_sweep_matches_direct_averages():
    values = [0.85, 0.92, 1.0]
    res = sweep_1d(BASELINE, "zeta", values, "new", "fidelity")
    for x, m in zip(res.xs, res.means):
        direct = avg_fidelity_new(CavityParams(4.0, 0.0, 0.0, 0.916, x))
        assert m == pytest.approx(direct, abs=1e-12)
    assert res.stderrs == (0.0, 0.0, 0.0)

    res_old = sweep_1d(BASELINE, "kappa_ratio", [0.8, 1.0], "old", "fidelity")
    assert res_old.means[0] == pytest.approx(
        avg_fidelity_old(CavityParams(4.0, 0.0, 0.0, 0.8, 0.92)), abs=1e-12
    )

    res_s = sweep_1d(BASELINE, "c", [2.0, 8.0], "new", "success")
    assert res_s.means[1] == pytest.approx(
        avg_success(CavityParams(8.0, 0.0, 0.0, 0.916, 0.92), "new"), abs=1e-12
    )


# sweep_1d means over the CLI's default axis ranges at the baseline point
# (12 significant digits)
SWEEP_GOLDEN = {
    ("zeta", "fidelity", "new"): (
        0.949449937293, 0.954201776434, 0.958857044427, 0.963419424231,
        0.967892387952, 0.972279212993, 0.976582996662, 0.980806669417,
        0.984953006881, 0.989024640785, 0.993024068943,
    ),
    ("zeta", "fidelity", "old"): (
        0.849140489056, 0.862982342771, 0.877075173685, 0.891425886946,
        0.906041643999, 0.920929874618, 0.936098289627, 0.951554894354,
        0.967308002866, 0.983366253035, 0.999738622512,
    ),
    ("zeta", "success", "new"): (
        0.765183130864, 0.771812709136, 0.778442287407, 0.785071865679,
        0.791701443951, 0.798331022222, 0.804960600494, 0.811590178765,
        0.818219757037, 0.824849335309, 0.83147891358,
    ),
    ("zeta", "success", "old"): (
        0.742199150617, 0.735754129383, 0.729309108148, 0.722864086914,
        0.716419065679, 0.709974044444, 0.70352902321, 0.697084001975,
        0.690638980741, 0.684193959506, 0.677748938272,
    ),
    ("kappa_ratio", "fidelity", "new"): (
        0.945465493305, 0.951546799107, 0.956987968193, 0.961833852295,
        0.966126368151, 0.969904648575, 0.973205197116, 0.976062042603,
        0.978506890981, 0.980569272619, 0.982276683862,
    ),
    ("kappa_ratio", "fidelity", "old"): (
        0.817124465719, 0.848872338757, 0.874288525074, 0.89424382736,
        0.909589334043, 0.921098799209, 0.929447735087, 0.935211686694,
        0.93887360218, 0.940834793422, 0.941426635376,
    ),
    ("kappa_ratio", "success", "new"): (
        0.67809382716, 0.693686123457, 0.709932641975, 0.726833382716,
        0.744388345679, 0.762597530864, 0.781460938272, 0.800978567901,
        0.821150419753, 0.841976493827, 0.863456790123,
    ),
    ("kappa_ratio", "success", "old"): (
        0.354409876543, 0.387434469136, 0.425447506173, 0.468448987654,
        0.51643891358, 0.569417283951, 0.627384098765, 0.690339358025,
        0.758283061728, 0.831215209877, 0.909135802469,
    ),
}
SWEEP_RANGES = {"zeta": (0.8, 1.0), "kappa_ratio": (0.7, 1.0)}


@pytest.mark.parametrize("axis, quantity, scheme", sorted(SWEEP_GOLDEN))
def test_sweep_frozen_values(axis, quantity, scheme):
    values = np.linspace(*SWEEP_RANGES[axis], 11)
    res = sweep_1d(BASELINE, axis, values, scheme, quantity)
    assert res.means == pytest.approx(SWEEP_GOLDEN[axis, quantity, scheme], rel=0, abs=1e-12)


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep_1d(BASELINE, "delta_a", [0.1], "new")
    with pytest.raises(ValueError):
        sweep_1d(BASELINE, "zeta", [0.9], "newest")
    with pytest.raises(ValueError):
        sweep_1d(BASELINE, "zeta", [0.9], "new", "speed")
