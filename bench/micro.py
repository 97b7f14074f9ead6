"""Isolated micro-timings of public functions on fixed inputs.

Run as a child of the benchmark:

    PYTHONPATH=src python bench/micro.py OUT.json [--quick]

Each case is timed in batches large enough to read the clock well, and
the median per-call time over the batches is reported. Inputs are fixed,
not drawn from the workload seed, so the numbers compare across runs and
commits. ``--quick`` takes fewer batches (for the harness self-test).
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from dataclasses import replace

import numpy as np

from cavsim import analytic, cavity, entangle, montecarlo, oracle, validate

BASELINE = cavity.CavityParams(c=4.0, kappa_ratio=0.916, zeta=0.92)
MATCHED = replace(BASELINE, zeta=1.0)
EQUAL = analytic.JointState.equal_superposition()


def per_call_s(fn, batches: int, min_batch_s: float = 0.01) -> float:
    """Median seconds per call over `batches` batches of equal size."""
    fn()  # let lazy set-up finish before timing
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= min_batch_s:
            break
        n *= 2
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        times.append((time.perf_counter() - t0) / n)
    return statistics.median(times)


def _one_point(trials: int, scheme: str):
    spec = replace(montecarlo.standard_fluctuation_spec(trials=trials, seed=11), window=1)
    grid = np.array([4.0])
    return lambda: montecarlo.mc_infidelity_curve(spec, scheme, grid)


def _philox_draws(n: int):
    def draw():
        rng = np.random.Generator(np.random.Philox(key=np.array([11, 0], dtype=np.uint64)))
        for _ in range(10):
            rng.normal(0.5, 0.1, n)

    return draw


def thread_efficiency(batches: int) -> float:
    """t1 / (nproc * tN) on one fixed 20-point, 10k-trial curve."""
    nproc = min(len(os.sched_getaffinity(0)), os.cpu_count() or 1)
    spec = montecarlo.standard_fluctuation_spec(trials=10_000, seed=11)
    grid = np.linspace(1.0, 10.0, 20)
    times = {}
    for threads in (1, nproc):
        os.environ["CAVSIM_THREADS"] = str(threads)
        times[threads] = per_call_s(
            lambda: montecarlo.mc_infidelity_curve(spec, "new", grid), batches, 0.0
        )
    return times[1] / (nproc * times[nproc])


def oracle_elements():
    refl = cavity.reflection_lossy(BASELINE)
    st = oracle.prepare_photon_atom({"H": 0.6, "V": 0.8j}, (0.8, 0.6))
    split = oracle.apply_pbs(st, "in", "cav", "byp")
    scattered = oracle.apply_scattering(split, "cav", refl, zeta=0.92, theta=0.3)
    ideal = {("H", 0): 0.6 * 0.8, ("H", 1): 0.6 * 0.6, ("V", 0): 0.8, ("V", 1): 0.6}
    return {
        "oracle.apply_pbs_us": lambda: oracle.apply_pbs(st, "in", "cav", "byp"),
        "oracle.apply_phase_us": lambda: oracle.apply_phase(split, "byp", 0.7),
        "oracle.apply_attenuator_us": lambda: oracle.apply_attenuator(split, "byp", 0.9),
        "oracle.apply_scattering_us": lambda: oracle.apply_scattering(
            split, "cav", refl, zeta=0.92, theta=0.3
        ),
        "oracle.herald_us": lambda: oracle.herald(scattered, {"cav", "byp"}),
        "oracle.fidelity_against_us": lambda: oracle.fidelity_against(scattered, ideal, "cav"),
    }


def cases() -> dict:
    """Metric name -> zero-argument call; times are reported in microseconds."""
    refl = cavity.reflection_lossy(BASELINE)
    refl_matched = cavity.reflection_lossy(MATCHED)
    setup = entangle.TwoCavitySetup(MATCHED, replace(MATCHED, c=3.0), 0.1, -0.2)
    rng = np.random.default_rng(11)
    arrays = (
        rng.normal(4.0, 0.4, 10_000),
        rng.normal(0.0, 0.05, 10_000),
        rng.normal(0.0, 0.05, 10_000),
        np.clip(rng.normal(0.9, 0.05, 10_000), 0.0, 1.0),
    )
    out = {
        "montecarlo.point_us.10k.new": _one_point(10_000, "new"),
        "montecarlo.point_us.10k.old": _one_point(10_000, "old"),
        "montecarlo.point_us.1k.new": _one_point(1_000, "new"),
        "cavity.reflection_amplitudes_us.10k": lambda: cavity.reflection_amplitudes(*arrays),
        "numpy.philox_draw_us": _philox_draws(10_000),
        "analytic.avg_fidelity_new_us": lambda: analytic.avg_fidelity_new(BASELINE),
        "analytic.avg_fidelity_old_us": lambda: analytic.avg_fidelity_old(BASELINE),
        "analytic.avg_success_new_us": lambda: analytic.avg_success(BASELINE, "new"),
        "analytic.avg_success_old_us": lambda: analytic.avg_success(BASELINE, "old"),
        "analytic.cz_new_us": lambda: analytic.cz_new(BASELINE, EQUAL),
        "analytic.cz_old_us": lambda: analytic.cz_old(BASELINE, EQUAL),
        "entangle.atom_atom_new_us": lambda: entangle.atom_atom_new(setup),
        "entangle.atom_atom_old_us": lambda: entangle.atom_atom_old(setup),
        "entangle.two_atoms_one_cavity_us": lambda: entangle.two_atoms_one_cavity(BASELINE),
        "oracle.run_cz_new_us": lambda: oracle.run_cz_new(refl, 0.92, EQUAL, phi=0.1),
        "oracle.run_cz_old_us": lambda: oracle.run_cz_old(refl, 0.92, EQUAL),
        "oracle.run_remote_new_us": lambda: oracle.run_remote_new(
            refl_matched, refl_matched, 0.1, -0.2
        ),
    }
    out.update(oracle_elements())
    return out


def main(argv) -> int:
    out_path = argv[0]
    batches = 3 if "--quick" in argv else 7
    os.environ["CAVSIM_THREADS"] = "1"
    result = {name: per_call_s(fn, batches) * 1e6 for name, fn in cases().items()}
    result["validate.run_all_ms"] = per_call_s(validate.run_all, batches) * 1e3
    result["montecarlo.thread_eff"] = thread_efficiency(batches)
    with open(out_path, "w") as fh:
        json.dump(result, fh, allow_nan=False)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
