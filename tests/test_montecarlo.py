"""Fluctuation Monte Carlo: determinism, stream independence from
scheduling, clamp accounting, smoothing, and the deterministic sweeps."""

import csv
import io
import json
import math
import os
from dataclasses import fields, replace

import numpy as np
import pytest

from cavsim import cavity, montecarlo
from cavsim.cavity import reflection_amplitudes
from cavsim import (
    CavityParams,
    FluctuationSpec,
    NoHeraldError,
    TwoCavitySetup,
    atom_atom_old,
    avg_fidelity_new,
    avg_fidelity_old,
    avg_success,
    standard_fluctuation_spec,
    mc_infidelity_curve,
    sweep_1d,
)
from cavsim.montecarlo import MAX_TRIALS_IN_FLIGHT, _n_threads, write_json

SMALL_GRID = np.linspace(1.0, 10.0, 16)


def _small_spec(trials=400, seed=99, window=1, sigma_phi=0.0):
    return replace(standard_fluctuation_spec(trials, seed, sigma_phi), window=window)


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
    spec = replace(base, cavity1_kappa_ratio_mean=0.05, cavity1_kappa_ratio_sigma=0.1,
                   cavity2_kappa_ratio_mean=0.05, cavity2_kappa_ratio_sigma=0.1)
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
    monkeypatch.setattr(montecarlo, "_BLOCK_TRIALS", 2 * 400)  # blocks of 2, 2 and 1 points
    calls = []
    original = montecarlo.reflection_amplitudes

    def counted(*args):
        calls.append(args[0].size)
        return original(*args)

    monkeypatch.setattr(montecarlo, "reflection_amplitudes", counted)
    grid = np.linspace(1.0, 10.0, 5)
    mc_infidelity_curve(_small_spec(trials=400), "both", grid)
    assert len(calls) == 2 * 3  # once per cavity and block
    assert sum(calls) == 2 * grid.size * 400  # each trial reflected once per cavity


def _block_rows(monkeypatch, spec, block):
    """The ten clamped parameter rows of each point of one _mc_block, in
    _DRAWN order, as a (points, rows, trials) array, and the generator
    the block drew them from."""
    seen, rows = {}, []
    make_generator = np.random.Generator

    def generator(bit_generator):
        seen["rng"] = make_generator(bit_generator)
        return seen["rng"]

    def reflect(c, dc, da, kr):
        rows.extend(np.copy(x) for x in (c, kr, dc, da))
        return c, c

    def stats(*args):
        # constant phases reach the kernels as one element per point
        rows.extend(np.broadcast_to(f, (len(block), spec.trials)) for f in args[-2:])

    monkeypatch.setattr(np.random, "Generator", generator)
    monkeypatch.setattr(montecarlo, "reflection_amplitudes", reflect)
    monkeypatch.setattr(montecarlo, "_infidelity_stats", stats)
    montecarlo._mc_block(spec, ("new",), block)
    monkeypatch.undo()
    return np.array(rows).transpose(1, 0, 2), seen["rng"]


def _full_draw_rows(spec, c_mean, index):
    """The rows scaled from one standard_normal(10 n) block, as every row
    was drawn before trailing sigma-0 rows were skipped, and clamped."""
    key = np.array([spec.seed, index], dtype=np.uint64)
    rows = np.random.Generator(np.random.Philox(key=key)).standard_normal(10 * spec.trials)
    rows = rows.reshape(10, -1)
    for row, name in zip(rows, montecarlo._DRAWN):
        mean, sigma = getattr(spec, name + "_mean"), getattr(spec, name + "_sigma")
        if name in ("cavity1_c", "cavity2_c"):
            mean, sigma = c_mean, sigma / mean * c_mean
        row *= sigma
        row += mean
    for k in (0, 4):
        np.maximum(rows[k], 0.0, out=rows[k])
        np.clip(rows[k + 1], 0.0, 1.0, out=rows[k + 1])
    return rows


def _stream_after(spec, index, normals):
    """The next raw outputs of the point's stream after `normals` draws."""
    key = np.array([spec.seed, index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    rng.standard_normal(normals)
    return rng.bit_generator.random_raw(8)


_NO_CAVITY_NOISE = {f"cavity{k}_{p}_sigma": 0.0 for k in (1, 2)
                    for p in ("c", "kappa_ratio", "delta_c", "delta_a")}


@pytest.mark.parametrize("changes, live", [
    ({"phi1_sigma": 0.1, "phi2_mean": 0.3}, 9),  # only the last row is skipped
    ({**_NO_CAVITY_NOISE, "phi1_mean": -0.2}, 0),  # nothing is drawn
    ({"cavity1_delta_c_sigma": 0.0, "cavity1_delta_c_mean": 0.1}, 8),  # a middle sigma 0 is drawn
])
def test_point_draws_only_the_rows_it_reads(monkeypatch, changes, live):
    spec = replace(_small_spec(trials=500, seed=5), **changes)
    for block in ([(7, 3.0)], [(6, 2.5), (7, 3.0), (8, 3.5)]):
        rows, rng = _block_rows(monkeypatch, spec, block)
        assert rows.shape == (len(block), 10, spec.trials)
        for point_rows, (index, c_mean) in zip(rows, block):
            full = _full_draw_rows(spec, c_mean, index)
            assert point_rows.tobytes() == full.tobytes()
            for row, name in zip(point_rows, montecarlo._DRAWN):
                if getattr(spec, name + "_sigma") == 0.0:
                    c_row = name in ("cavity1_c", "cavity2_c")
                    assert np.all(row == (c_mean if c_row else getattr(spec, name + "_mean")))
        # the last point's stream stopped after the drawn rows
        assert np.array_equal(rng.bit_generator.random_raw(8),
                              _stream_after(spec, block[-1][0], live * spec.trials))


def test_trials_bound_stops_before_drawing(monkeypatch):
    def no_draws(*args):
        raise AssertionError("a grid point was evaluated")

    monkeypatch.setattr(montecarlo, "_mc_block", no_draws)
    monkeypatch.setenv("CAVSIM_THREADS", "1")
    with pytest.raises(ValueError, match="memory bound"):
        mc_infidelity_curve(_small_spec(trials=MAX_TRIALS_IN_FLIGHT + 1), "both", SMALL_GRID)
    # the bound is on trials x workers; only the count is checked, no pool starts
    monkeypatch.setattr(montecarlo, "_n_threads", lambda: 2)
    half = _small_spec(trials=MAX_TRIALS_IN_FLIGHT // 2 + 1)
    with pytest.raises(ValueError, match="memory bound"):
        mc_infidelity_curve(half, "new", SMALL_GRID)


def test_phase_noise_hurts_new_scheme():
    plain = mc_infidelity_curve(_small_spec(trials=2000), "new", SMALL_GRID)
    noisy = mc_infidelity_curve(_small_spec(trials=2000, sigma_phi=0.3), "new", SMALL_GRID)
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


def _fixed_spec(kappa_ratio: float) -> FluctuationSpec:
    """Every trial the same: no sigma, both cavities at kappa_ratio."""
    sigmas = {f.name: 0.0 for f in fields(FluctuationSpec) if f.name.endswith("_sigma")}
    return FluctuationSpec(**sigmas, cavity1_kappa_ratio_mean=kappa_ratio,
                           cavity2_kappa_ratio_mean=kappa_ratio, trials=3, window=1)


def test_old_scheme_trial_heralds_per_branch():
    # each branch has p = 7.5e-13 and their sum 1.5e-12 (test_entangle's
    # BRANCHES_BELOW_SUM_ABOVE); a rule on the sum scored it with fidelity 0.25
    with pytest.raises(NoHeraldError):
        mc_infidelity_curve(_fixed_spec(0.5), "old", [0.000932340139630652])


def test_old_scheme_trial_scores_as_atom_atom_old():
    # psi+ has p ~ 5e-13 and does not herald, phi+ has p ~ 1 (test_entangle's
    # PSI_PLUS_BELOW)
    c = 2.89e-7
    res = atom_atom_old(TwoCavitySetup(CavityParams(c=c), CavityParams(c=c)))
    assert res.psi_plus_weight == 0.0
    curve = mc_infidelity_curve(_fixed_spec(1.0), "old", [c])
    weighted = (res.phi_plus_weight * res.phi_plus_fidelity
                + res.psi_plus_weight * res.psi_plus_fidelity)
    assert abs(curve.means[0] - (1.0 - weighted)) <= 1e-15
    assert curve.metadata["skipped_no_herald"] == 0


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


def _slice_average(means, stderrs, window):
    """The moving average reduced one slice per point."""
    n = len(means)
    out_m, out_e = [], []
    for i in range(n):
        lo, hi = max(0, i - window // 2), min(n, i + (window + 1) // 2)
        out_m.append(float(np.mean(means[lo:hi])))
        out_e.append(float(np.sqrt(np.sum(np.square(stderrs[lo:hi]))) / (hi - lo)))
    return out_m, out_e


@pytest.mark.parametrize("window", [1, 2, 7, 50])
def test_moving_average_strided_windows_equal_slices_bit_for_bit(window):
    rng = np.random.default_rng(window)
    for n in sorted({1, window - 1, window, window + 1, 2000} - {0}):
        means, stderrs = rng.uniform(0.0, 0.1, n), rng.uniform(0.0, 1e-3, n)
        got = montecarlo._moving_average(means.tolist(), stderrs.tolist(), window)
        want = _slice_average(means, stderrs, window)
        assert [[x.hex() for x in col] for col in got] == [[x.hex() for x in col] for col in want]


_DRAWN_PHASES = {"phi1_sigma": 0.2, "phi2_sigma": 0.1}
# kappa_ratio ~ N(0.13, 0.1) clamps both cavities to 0 in about one trial
# of a hundred: the new scheme skips it, so some blocks herald in every
# trial and others do not
_SOME_SKIP = {**_DRAWN_PHASES, **{f"cavity{k}_kappa_ratio_{p}": v for k in (1, 2)
                                  for p, v in (("mean", 0.13), ("sigma", 0.1))}}


def _curves(spec, grid):
    return [mc_infidelity_curve(spec, "new", grid), mc_infidelity_curve(spec, "old", grid),
            *mc_infidelity_curve(spec, "both", grid)]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("changes", [{}, _DRAWN_PHASES, _SOME_SKIP],
                         ids=["constant-phases", "drawn-phases", "some-skip"])
def test_results_do_not_depend_on_block_size(monkeypatch, threads, changes):
    # 7 points of 40 trials: one block by default, else 7 blocks of 1 or 3 + 3 + 1
    monkeypatch.setenv("CAVSIM_THREADS", threads)
    spec = replace(_small_spec(trials=40, window=3), **changes)
    grid = np.linspace(1.0, 10.0, 7)
    whole = _curves(spec, grid)
    for points in (1, 3):
        monkeypatch.setattr(montecarlo, "_BLOCK_TRIALS", points * spec.trials)
        for a, b in zip(whole, _curves(spec, grid)):
            assert [x.hex() for x in a.means + a.stderrs] == [x.hex() for x in b.means + b.stderrs]
            assert a.metadata == b.metadata
    if changes is _SOME_SKIP:  # still in blocks of 3
        shapes = []
        row_stats = montecarlo._row_stats

        def spied(infid, skipped):
            shapes.append(infid.shape)
            return row_stats(infid, skipped)

        monkeypatch.setattr(montecarlo, "_row_stats", spied)
        assert mc_infidelity_curve(spec, "new", grid).metadata["skipped_no_herald"] > 0
        # one curve took both reductions: a whole 3-point block, and single compressed rows
        assert (3, 40) in shapes and any(n < 40 for _, n in shapes)


def test_metadata_reconstructs_run():
    spec = _small_spec()
    res = mc_infidelity_curve(spec, "new", SMALL_GRID)
    rebuilt_spec = FluctuationSpec(**{f.name: res.metadata[f.name] for f in fields(spec)})
    rebuilt = mc_infidelity_curve(rebuilt_spec, res.metadata["scheme"], np.array(res.xs))
    assert rebuilt.means == res.means
    assert rebuilt.stderrs == res.stderrs


def test_spec_validation():
    with pytest.raises(ValueError):
        standard_fluctuation_spec(trials=0)
    with pytest.raises(ValueError, match="^cavity2_delta_c_sigma must be >= 0$"):
        FluctuationSpec(cavity2_delta_c_sigma=-0.1)
    with pytest.raises(ValueError, match="^phi1_sigma must be finite, got nan$"):
        standard_fluctuation_spec(sigma_phi=float("nan"))
    with pytest.raises(ValueError, match="^cavity1_c_mean must be positive"):
        FluctuationSpec(cavity1_c_mean=0.0)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="^seed must fit in a uint64$"):
            FluctuationSpec(seed=seed)
    with pytest.raises(ValueError, match="^window must be >= 1$"):
        FluctuationSpec(window=0)
    spec = standard_fluctuation_spec()
    with pytest.raises(ValueError):
        mc_infidelity_curve(spec, "fancy", SMALL_GRID)
    with pytest.raises(ValueError):
        mc_infidelity_curve(spec, "new", np.array([]))
    with pytest.raises(ValueError, match="must be positive"):
        mc_infidelity_curve(spec, "new", [float("nan"), 2.0])
    with pytest.raises(ValueError):
        mc_infidelity_curve(spec, "new", np.array([0.0, 1.0]))


def test_default_grid():
    # mc's grid, 500 points on [1, 10], built by the one grid builder
    xs = mc_infidelity_curve(_small_spec(trials=5), "new").xs
    assert [x.hex() for x in xs] == [float(x).hex() for x in np.linspace(1.0, 10.0, 500)]
    with pytest.raises(ValueError, match="at least 1 point"):
        montecarlo._linspace(1.0, 10.0, 0)


@pytest.mark.parametrize("phi1, phi2", [(0.0, 0.0), (0.3, -1.2), (1e3, -1e3)])
def test_constant_phases_broadcast_from_one_element(phi1, phi2):
    # where no phase is drawn, _mc_block passes one element of each point's rows
    rng = np.random.default_rng(17)
    shape = (3, 2000)
    refl = [reflection_amplitudes(rng.uniform(0.0, 10.0, shape), rng.normal(0.0, 0.1, shape),
                                  rng.normal(0.0, 0.1, shape), rng.uniform(0.5, 1.0, shape))
            for _ in range(2)]
    f1, f2 = np.full(shape, phi1), np.full(shape, phi2)
    full = montecarlo._infidelity_stats("new", *refl[0], *refl[1], f1, f2)
    assert len(full) == 3
    assert montecarlo._infidelity_stats("new", *refl[0], *refl[1], f1[:, :1], f2[:, :1]) == full


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

    # stray numpy scalars write as the Python values they hold
    def written(payload):
        buf = io.StringIO()
        write_json(payload, buf)
        return buf.getvalue()

    assert written({"x": np.float64(0.1), "n": np.int64(3), "ok": np.bool_(True)}) == written(
        {"x": 0.1, "n": 3, "ok": True}
    )


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
    # the reflection memo does not skip CavityParams validation mid-grid
    with pytest.raises(ValueError, match="zeta must lie in"):
        sweep_1d(BASELINE, "zeta", [0.9, 1.0, 1.1, 0.95], "new")


@pytest.mark.parametrize("axis, lo, hi, reflections", [("zeta", 0.8, 1.0, 1), ("c", 1.0, 10.0, 22)])
def test_sweep_reflects_only_when_the_cavity_changes(axis, lo, hi, reflections, monkeypatch):
    # both schemes, as `sweep --scheme both` runs them; zeta is not a reflection input
    calls = []
    original = cavity.reflection_amplitudes

    def counted(*args):
        calls.append(args)
        return original(*args)

    cavity._reflected.cache_clear()
    monkeypatch.setattr(cavity, "reflection_amplitudes", counted)
    for scheme in ("new", "old"):
        sweep_1d(BASELINE, axis, np.linspace(lo, hi, 11), scheme, "fidelity")
    assert len(calls) == reflections
