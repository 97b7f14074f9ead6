#!/usr/bin/env python3
"""cavsim benchmark.

One run:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the workload's child process is run again and again
for S seconds (at least MIN_REPS times) with tracing off, its outputs are
checked, and the end-to-end metrics are printed. With ``--trace 1`` the
same workload runs traced in process (bench/tracing.py) and the per-layer
metrics are printed: traced numbers come from the workload itself where
it reaches the layer and from one traced pass of the layer's home
workload where it does not, and the fixed-input micro-timings come from
bench/micro.py. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the line before it is
the environment stamp. ``--record FILE`` also writes the full record.

Other modes:

    python3 bench/run.py --series OUT.json [--seconds S] [--first-seed N]
    python3 bench/run.py --compare A.json B.json
    python3 bench/run.py --self-test

Run from the root of a checkout. Only the stdlib and numpy are used;
cavsim is run from src/ through PYTHONPATH, so nothing is installed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracing  # bench/tracing.py; run.py's directory is first on sys.path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_REPS = 3
CHILD_TIMEOUT_S = 60.0
ORACLE_TOL = 1e-10
CROSSCHECK_POINTS = 2000
REMOTE_EVERY = 4  # every 4th crosscheck point also checks the two-node chain

Metric = namedtuple("Metric", "unit better")

END_TO_END = {
    "wall_s": Metric("s", "lower"),
    "setup_s": Metric("s", "lower"),
    "work_per_s": Metric("1/s", "higher"),
    "cpu_s": Metric("s", "lower"),
    "peak_rss_mb": Metric("MB", "lower"),
    "ok_ratio": Metric("ratio", "higher"),
}


@dataclass(frozen=True)
class Layer:
    """One per-layer metric.

    src "T": read from a traced pass, taken from the run's own workload
    when it is in `reached`, else from reached[0] (the layer's home).
    src "M": a fixed-input micro-timing from bench/micro.py.
    src "H": measured by this harness.
    Which end-to-end metric each should move is tabled in bench/README.md.
    """

    unit: str
    better: str
    src: str
    reached: tuple = ()


MC = ("mc-both", "mc-fine")
CLI = ("mc-both", "mc-fine", "sweep-zeta")
SWEEP = ("sweep-zeta",)
XCHECK = ("crosscheck",)
ALL = ("mc-both", "mc-fine", "sweep-zeta", "crosscheck")

PER_LAYER = {
    "cli.main.self_ms": Layer("ms", "lower", "T", ("sweep-zeta", "mc-both", "mc-fine")),
    "montecarlo.mc_infidelity_curve.self_ms": Layer("ms", "lower", "T", MC),
    "montecarlo.sweep_1d.self_ms": Layer("ms", "lower", "T", SWEEP),
    "montecarlo.write.ms": Layer("ms", "lower", "T", CLI),
    "montecarlo.write.bytes": Layer("bytes", "lower", "T", CLI),
    "montecarlo.trials_evaluated": Layer("count", "higher", "T", MC),
    "montecarlo.skipped_no_herald": Layer("count", "lower", "T", MC),
    "montecarlo.clamped_kappa_ratio": Layer("count", "lower", "T", MC),
    "montecarlo.useful_ratio": Layer("ratio", "higher", "T", MC),
    "cavity.reflection_amplitudes.calls": Layer("count", "lower", "T", ALL),
    "cavity.reflection_amplitudes.ms": Layer("ms", "lower", "T", ALL),
    "numpy.leggauss.calls": Layer("count", "lower", "T", SWEEP),
    "numpy.leggauss.ms": Layer("ms", "lower", "T", SWEEP),
    "analytic.avg.calls": Layer("count", "lower", "T", SWEEP),
    "analytic.avg.ms": Layer("ms", "lower", "T", SWEEP),
    "oracle.run_cz_new.calls": Layer("count", "lower", "T", XCHECK),
    "oracle.run_cz_new.ms": Layer("ms", "lower", "T", XCHECK),
    "oracle.run_cz_old.calls": Layer("count", "lower", "T", XCHECK),
    "oracle.run_cz_old.ms": Layer("ms", "lower", "T", XCHECK),
    "oracle.run_remote_new.calls": Layer("count", "lower", "T", XCHECK),
    "oracle.run_remote_new.ms": Layer("ms", "lower", "T", XCHECK),
    "oracle.max_labels": Layer("count", "lower", "T", XCHECK),
    "oracle.max_abs_dev": Layer("abs", "lower", "T", XCHECK),
    "trace.wall_s": Layer("s", "lower", "H"),
    "host.ref_ms": Layer("ms", "lower", "H"),
    "montecarlo.point_us.10k.new": Layer("us", "lower", "M"),
    "montecarlo.point_us.10k.old": Layer("us", "lower", "M"),
    "montecarlo.point_us.1k.new": Layer("us", "lower", "M"),
    "montecarlo.thread_eff": Layer("ratio", "higher", "M"),
    "cavity.reflection_amplitudes_us.10k": Layer("us", "lower", "M"),
    "numpy.philox_draw_us": Layer("us", "lower", "M"),
    "analytic.avg_fidelity_new_us": Layer("us", "lower", "M"),
    "analytic.avg_fidelity_old_us": Layer("us", "lower", "M"),
    "analytic.avg_success_new_us": Layer("us", "lower", "M"),
    "analytic.avg_success_old_us": Layer("us", "lower", "M"),
    "analytic.cz_new_us": Layer("us", "lower", "M"),
    "analytic.cz_old_us": Layer("us", "lower", "M"),
    "entangle.atom_atom_new_us": Layer("us", "lower", "M"),
    "entangle.atom_atom_old_us": Layer("us", "lower", "M"),
    "entangle.two_atoms_one_cavity_us": Layer("us", "lower", "M"),
    "oracle.run_cz_new_us": Layer("us", "lower", "M"),
    "oracle.run_cz_old_us": Layer("us", "lower", "M"),
    "oracle.run_remote_new_us": Layer("us", "lower", "M"),
    "oracle.apply_pbs_us": Layer("us", "lower", "M"),
    "oracle.apply_phase_us": Layer("us", "lower", "M"),
    "oracle.apply_attenuator_us": Layer("us", "lower", "M"),
    "oracle.apply_scattering_us": Layer("us", "lower", "M"),
    "oracle.herald_us": Layer("us", "lower", "M"),
    "oracle.fidelity_against_us": Layer("us", "lower", "M"),
    "validate.run_all_ms": Layer("ms", "lower", "M"),
}


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_threads(requested: int) -> int:
    """Thread count handed to a child: never above os.cpu_count()."""
    return max(1, min(requested, os.cpu_count() or 1))


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def loadavg() -> list | None:
    text = _read("/proc/loadavg")
    return [float(v) for v in text.split()[:3]] if text else None


def cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        return "unknown"


def git_state() -> tuple[str | None, bool | None]:
    if not (ROOT / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(dirty)


def stamp(seed: int) -> dict:
    sha, dirty = git_state()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(),
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_sha": sha,
        "git_dirty": dirty,
        "seed": seed,
        "loadavg_start": loadavg(),
    }


def host_ref_ms(reps: int = 21) -> float:
    """A fixed single-threaded numpy kernel; it drifts with the host, not the program."""
    x = np.linspace(0.0, 1.0, 1_000_000)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        float(np.sin(x).sum())
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float = math.nan  # the child's own peak, from bench/child.py


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["CAVSIM_THREADS"] = str(child_threads(threads))
    return env


def spawn(argv: list, env: dict, log: Path) -> Child:
    """Run one child to its end; wall time from spawn to exit, CPU time from wait4."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Child(code, wall, usage.ru_utime + usage.ru_stime)


# ---------------------------------------------------------------------------
# artifact checks: each returns a list of problems, empty when all is well
# ---------------------------------------------------------------------------


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


def load_strict_json(path: Path):
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def check_curve(out: Path, stem: str, points: int) -> tuple[list, list]:
    """Parse stem.json and stem.csv strictly; return (rows, problems)."""
    problems = []
    rows = []
    try:
        doc = load_strict_json(out / f"{stem}.json")
        rows = doc["rows"]
        if doc["columns"] != ["x", "mean", "stderr"]:
            problems.append(f"{stem}.json: columns {doc['columns']}")
        if len(rows) != points:
            problems.append(f"{stem}.json: {len(rows)} rows, expected {points}")
        if not all(len(r) == 3 and all(math.isfinite(v) for v in r) for r in rows):
            problems.append(f"{stem}.json: a row is not three finite numbers")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"{stem}.json: {exc}")
    try:
        with open(out / f"{stem}.csv", newline="") as fh:
            table = list(csv.reader(fh))
        body = [[float(v) for v in r] for r in table[1:]]
        if table[0] != ["x", "mean", "stderr"] or len(body) != points:
            problems.append(f"{stem}.csv: header {table[0]}, {len(body)} rows")
        elif not all(math.isfinite(v) for r in body for v in r):
            problems.append(f"{stem}.csv: non-finite value")
    except (OSError, ValueError, IndexError) as exc:
        problems.append(f"{stem}.csv: {exc}")
    return rows, problems


def check_mc_both(out: Path, size: dict) -> list:
    new, problems = check_curve(out, "mc_new", size["points"])
    old, more = check_curve(out, "mc_old", size["points"])
    problems += more
    # c06 bands
    if any(not 0.001 < m < 0.006 for _x, m, _e in new):
        problems.append("mc_new: mean infidelity outside (0.001, 0.006)")
    if any(not 0.01 < m < 0.04 for x, m, _e in old if x >= 3.0):
        problems.append("mc_old: mean infidelity outside (0.01, 0.04) for C >= 3")
    return problems


def check_mc_fine(out: Path, size: dict) -> list:
    rows, problems = check_curve(out, "mc_new", size["points"])
    # c07 band for sigma_phi = 0.1
    if rows and max(m for _x, m, _e in rows) >= 0.01:
        problems.append("mc_new: max mean infidelity >= 0.01")
    return problems


def check_sweep_zeta(out: Path, size: dict) -> list:
    problems = []
    # c04 endpoint drops from zeta = 1.0 to zeta = 0.8
    for scheme, target in (("new", 0.04), ("old", 0.15)):
        rows, more = check_curve(out, f"sweep_zeta_fidelity_{scheme}", size["points"])
        problems += more
        if rows:
            drop = rows[-1][1] - rows[0][1]
            if abs(drop - target) > 0.01:
                problems.append(f"sweep {scheme}: zeta drop {drop:.4f}, expected {target}+-0.01")
    return problems


def crosscheck_failures(out: Path, points: int) -> tuple[int, float, list]:
    """(failed points, largest finite gap, problems) of one crosscheck output."""
    try:
        doc = load_strict_json(out / "crosscheck.json")
        gaps, mism = doc["gap"], doc["herald_mismatch"]
        if len(gaps) != points or len(mism) != points:
            return points, math.nan, [f"crosscheck: {len(gaps)} results for {points} points"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return points, math.nan, [f"crosscheck: {exc}"]
    bad = sum(1 for g, m in zip(gaps, mism) if m or g is None or not g <= ORACLE_TOL)
    finite = [g for g in gaps if g is not None]
    problems = [f"crosscheck: {bad} points over {ORACLE_TOL:g} or herald mismatch"] if bad else []
    return bad, max(finite, default=math.nan), problems


def artifact_hashes(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _rand_pair(rng):
    while True:
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        norm = np.linalg.norm(z)
        if norm > 1e-3:
            return z / norm


def _rand_cavity(rng, zeta=None) -> dict:
    # drawn like tests/conftest.py: weak to strong coupling, both detuning signs, lossy mirrors
    return {
        "c": float(10.0 ** rng.uniform(-1.0, 1.5)),
        "delta_c": float(rng.uniform(-2.0, 2.0)),
        "delta_a": float(rng.uniform(-2.0, 2.0)),
        "kappa_ratio": float(rng.uniform(0.0, 1.0)),
        "zeta": float(rng.uniform(0.0, 1.0)) if zeta is None else float(zeta),
    }


def make_points(seed: int, n: int) -> list:
    """Crosscheck inputs; every REMOTE_EVERY-th point is mode-matched and carries a second cavity."""
    rng = np.random.default_rng(seed)
    points = []
    for i in range(n):
        remote = i % REMOTE_EVERY == 0
        pt = {"cavity": _rand_cavity(rng, 1.0 if remote else None)}
        amps = np.concatenate([_rand_pair(rng), _rand_pair(rng)])
        pt["state"] = [[float(a.real), float(a.imag)] for a in amps]
        pt["phi"] = float(rng.uniform(-7.0, 7.0))
        if remote:
            pt["cavity2"] = _rand_cavity(rng, 1.0)
            pt["phi1"] = float(rng.uniform(-3.0, 3.0))
            pt["phi2"] = float(rng.uniform(-3.0, 3.0))
        points.append(pt)
    return points


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    full: dict
    tiny: dict

    def size(self, tiny: bool) -> dict:
        return self.tiny if tiny else self.full

    def units(self, size: dict) -> float:
        """Work units of one child run."""
        if self.name == "mc-both":
            return 2.0 * size["points"] * size["trials"]
        if self.name == "mc-fine":
            return float(size["points"] * size["trials"])
        if self.name == "sweep-zeta":
            return 2.0 * size["points"]
        return float(size["points"])

    def ops(self, size: dict) -> int:
        """Operations of one child run: one CLI call, or one per crosscheck point."""
        return size["points"] if self.name == "crosscheck" else 1

    def args(self, seed: int, size: dict, out: Path, inputs: Path | None) -> tuple[str, list]:
        """(kind, argv) of the workload for cavsim.cli or the crosscheck driver."""
        if self.name == "crosscheck":
            return "crosscheck", [str(inputs), str(out / "crosscheck.json")]
        extra = [f"--{k}={v}" for k, v in size.items()]
        if self.name == "sweep-zeta":
            return "cli", ["sweep", "--axis", "zeta", "--scheme", "both", *extra, "--out", str(out)]
        scheme = "both" if self.name == "mc-both" else "new"
        return "cli", ["mc", "--scheme", scheme, "--seed", str(seed), *extra, "--out", str(out)]

    def check(self, out: Path, size: dict) -> tuple[int, list]:
        """(failed ops, problems) of one finished child run."""
        if self.name == "crosscheck":
            bad, _gap, problems = crosscheck_failures(out, size["points"])
            return bad, problems
        checker = {"mc-both": check_mc_both, "mc-fine": check_mc_fine, "sweep-zeta": check_sweep_zeta}
        problems = checker[self.name](out, size)
        return (1 if problems else 0), problems


WORKLOADS = {
    w.name: w
    for w in (
        # CLI defaults: 500 points, 10k trials, window 50; points/trials are named
        # so the units and checks can read them.
        Workload("mc-both", nproc(), {"points": 500, "trials": 10_000},
                 {"points": 20, "trials": 2_000, "window": 5}),
        Workload("mc-fine", 1, {"points": 2000, "trials": 1000, "sigma-phi": 0.1},
                 {"points": 40, "trials": 1000, "sigma-phi": 0.1, "window": 5}),
        Workload("sweep-zeta", 1, {"points": 1001}, {"points": 11}),
        Workload("crosscheck", 1, {"points": CROSSCHECK_POINTS}, {"points": 40}),
    )
}


class Bench:
    """Inputs, scratch space and child launching for one run."""

    def __init__(self, workload: Workload, seed: int, tiny: bool, root: Path):
        self.wl = workload
        self.seed = seed
        self.size = workload.size(tiny)
        self.tiny = tiny
        self.root = root
        self.counter = 0
        root.mkdir(parents=True, exist_ok=True)

    def inputs_for(self, wl: Workload) -> Path | None:
        if wl.name != "crosscheck":
            return None
        path = self.root / f"points-{wl.name}.json"
        if not path.exists():
            points = make_points(self.seed, wl.size(self.tiny)["points"])
            path.write_text(json.dumps(points))
        return path

    def fresh_dir(self, tag: str) -> Path:
        self.counter += 1
        path = self.root / f"{tag}-{self.counter}"
        path.mkdir()
        return path

    def run_workload(self, wl: Workload, traced: bool) -> tuple[Child, Path, Path | None]:
        """One child run of wl; returns (child, artifact dir, trace file or None)."""
        size = wl.size(self.tiny)
        out = self.fresh_dir(wl.name + ("-traced" if traced else ""))
        kind, args = wl.args(self.seed, size, out, self.inputs_for(wl))
        if traced:
            trace_file = out.parent / f"{out.name}.trace.json"
            argv = [sys.executable, str(BENCH / "tracing.py"), str(trace_file), kind, *args]
            return spawn(argv, child_env(wl.threads), out.parent / f"{out.name}.log"), out, trace_file
        peak_file = out.parent / f"{out.name}.peak"
        target = ["-m", "cavsim.cli"] if kind == "cli" else [str(BENCH / "crosscheck.py")]
        argv = [sys.executable, str(BENCH / "child.py"), str(peak_file), *target, *args]
        child = spawn(argv, child_env(wl.threads), out.parent / f"{out.name}.log")
        if peak_file.exists():
            child.rss_mb = int(peak_file.read_text()) / 1024.0
        return child, out, None

    def setup_time(self) -> float:
        argv = [sys.executable, "-c", "import cavsim.cli"]
        child = spawn(argv, child_env(1), self.root / "setup.log")
        if child.code != 0:
            raise RuntimeError("importing cavsim.cli failed; see " + str(self.root / "setup.log"))
        return child.wall_s


def _median(values):
    return statistics.median(values) if values else math.nan


def run_plain(bench: Bench, seconds: float, min_reps: int) -> dict:
    """Untraced run: the end-to-end metrics."""
    wl, size = bench.wl, bench.size
    bench.setup_time()  # warm-up: byte-code caches, page cache
    walls, cpus, rss, setups = [], [], [], []
    attempted = failed = 0
    problems, hashes = [], {}
    deadline = time.monotonic() + seconds
    while len(walls) < min_reps or time.monotonic() < deadline:
        setups.append(bench.setup_time())
        child, out, _ = bench.run_workload(wl, traced=False)
        ops = wl.ops(size)
        attempted += ops
        if child.code != 0:
            failed += ops
            problems.append(f"{wl.name}: child exited {child.code}")
        else:
            bad, found = wl.check(out, size)
            failed += bad
            problems += found
        hashes = artifact_hashes(out)
        shutil.rmtree(out)
        walls.append(child.wall_s)
        cpus.append(child.cpu_s)
        rss.append(child.rss_mb)
    # Times are the fastest repetition. On a shared 2-core VM every process,
    # a bare import too, ran at one of two speeds 1.5-2x apart that took
    # turns over seconds to minutes; a median over repetitions measures that
    # mix, the fastest repetition measures the program. setup_s is the median
    # of its many short children, so that work moved into set-up shows.
    metrics = {
        "wall_s": min(walls),
        "setup_s": _median(setups),
        "work_per_s": wl.units(size) / (min(walls) - min(setups)),
        "cpu_s": min(cpus),
        "peak_rss_mb": _median(rss),
        "ok_ratio": (attempted - failed) / attempted,
    }
    samples = {"wall_s": walls, "setup_s": setups, "cpu_s": cpus, "peak_rss_mb": rss}
    return {
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "problems": problems, "samples": samples, "sha256": hashes,
    }


def traced_pass(bench: Bench, wl: Workload) -> tuple[dict, int, int, list, float, Path]:
    """One traced child run of wl: (layer values, attempted, failed, problems, wall, out)."""
    size = wl.size(bench.tiny)
    child, out, trace_file = bench.run_workload(wl, traced=True)
    ops = wl.ops(size)
    if child.code != 0 or not trace_file.exists():
        return {}, ops, ops, [f"{wl.name} traced: child exited {child.code}"], child.wall_s, out
    summary = tracing.summarize(json.loads(trace_file.read_text()))
    bad, problems = wl.check(out, size)
    values = {
        name: summary.get(name, 0.0)
        for name, layer in PER_LAYER.items() if layer.src == "T"
    }
    if wl.name in MC:
        schemes = ("new", "old") if wl.name == "mc-both" else ("new",)
        meta = [load_strict_json(out / f"mc_{s}.json")["metadata"] for s in schemes]
        trials = sum(m["trials"] * m["grid_points"] for m in meta)
        skipped = sum(m["skipped_no_herald"] for m in meta)
        values["montecarlo.trials_evaluated"] = trials
        values["montecarlo.skipped_no_herald"] = skipped
        values["montecarlo.clamped_kappa_ratio"] = sum(m["clamped_kappa_ratio"] for m in meta)
        values["montecarlo.useful_ratio"] = (trials - skipped) / trials
    if wl.name == "crosscheck":
        _bad, gap, _p = crosscheck_failures(out, size["points"])
        values["oracle.max_abs_dev"] = gap
    return values, ops, bad, problems, child.wall_s, out


def run_micro(bench: Bench) -> dict:
    out = bench.root / "micro.json"
    argv = [sys.executable, str(BENCH / "micro.py"), str(out)] + (["--quick"] if bench.tiny else [])
    child = spawn(argv, child_env(nproc()), bench.root / "micro.log")
    if child.code != 0:
        raise RuntimeError("micro-timings failed; see " + str(bench.root / "micro.log"))
    return load_strict_json(out)


def run_traced(bench: Bench, seconds: float, min_reps: int) -> dict:
    """Traced run: the per-layer metrics. The home passes and the micro-timings
    come first, and the workload's own traced passes fill the rest of `seconds`."""
    wl = bench.wl
    deadline = time.monotonic() + seconds
    bench.setup_time()  # warm-up
    attempted = failed = 0
    problems, metrics = [], {}
    homes = {}
    for name, layer in PER_LAYER.items():
        if layer.src == "T" and wl.name not in layer.reached:
            homes.setdefault(layer.reached[0], []).append(name)
    for home, names in homes.items():
        values, ops, bad, found, _wall, out = traced_pass(bench, WORKLOADS[home])
        attempted += ops
        failed += bad
        problems += found
        shutil.rmtree(out)
        metrics.update({n: values.get(n, math.nan) for n in names})
    metrics.update(run_micro(bench))
    passes, walls = [], []
    while len(walls) < min_reps or time.monotonic() < deadline:
        values, ops, bad, found, wall, out = traced_pass(bench, wl)
        passes.append(values)
        walls.append(wall)
        attempted += ops
        failed += bad
        problems += found
        shutil.rmtree(out)
    for name, layer in PER_LAYER.items():
        if layer.src == "T" and wl.name in layer.reached:
            metrics[name] = _median([p[name] for p in passes if name in p])
    metrics["trace.wall_s"] = min(walls)  # the fastest, like the untraced wall_s
    return {
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "problems": problems, "samples": {"trace.wall_s": walls},
    }


def run_once(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
             min_reps: int = MIN_REPS) -> dict:
    """One benchmark run; returns the full record (result line plus stamp and samples)."""
    wl = WORKLOADS[workload]
    info = stamp(seed)
    root = WORK / f"{os.getpid()}-{workload}-{'traced' if trace else 'plain'}"
    if root.exists():
        shutil.rmtree(root)
    bench = Bench(wl, seed, tiny, root)
    try:
        ref_before = host_ref_ms()
        body = (run_traced if trace else run_plain)(bench, seconds, min_reps)
        ref_after = host_ref_ms()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    info["loadavg_end"] = loadavg()
    info["host_ref_ms"] = [ref_before, ref_after]
    metrics = body["metrics"]
    if trace:
        metrics["host.ref_ms"] = _median([ref_before, ref_after])
    table = PER_LAYER if trace else END_TO_END
    result = {
        "correct": body["failed"] == 0 and all(math.isfinite(metrics[k]) for k in table),
        "attempted": body["attempted"],
        "failed": body["failed"],
        "metrics": {k: {"value": metrics[k], "unit": table[k].unit} for k in table},
    }
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "tiny": tiny, "stamp": info, "result": result, "problems": body["problems"][:20],
        "samples": body["samples"], "sha256": body.get("sha256", {}),
    }


# ---------------------------------------------------------------------------
# series and compare
# ---------------------------------------------------------------------------


SERIES_RUNS = 10  # untraced runs per workload: section 8 asks for ten pairs
SERIES_TRACE_RUNS = 1


def run_series(out: Path, seconds: int, first_seed: int) -> None:
    """Run this script as its own process for each run: SERIES_RUNS untraced runs
    per workload on consecutive seeds, then SERIES_TRACE_RUNS traced ones. Write
    every record to out."""
    records = []
    WORK.mkdir(exist_ok=True)
    for name in WORKLOADS:
        for i in range(SERIES_RUNS + SERIES_TRACE_RUNS):
            trace = int(i >= SERIES_RUNS)
            rec_file = WORK / f"series-{os.getpid()}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(first_seed + i), "--seconds", str(seconds),
                   "--trace", str(trace), "--record", str(rec_file)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                raise RuntimeError(f"{' '.join(cmd)} failed:\n{done.stderr}")
            records.append(json.loads(rec_file.read_text()))
            rec_file.unlink()
            if json.loads(done.stdout.splitlines()[-1]) != records[-1]["result"]:
                raise RuntimeError(f"{' '.join(cmd)}: last line differs from the record")
            line = records[-1]["result"]
            print(name, "trace" if trace else "plain", first_seed + i,
                  json.dumps({k: v["value"] for k, v in line["metrics"].items()}
                             if not trace else {"attempted": line["attempted"]}),
                  flush=True)
    out.write_text(json.dumps({"summary": summarize_series(records), "runs": records}) + "\n")


def summarize_series(records: list) -> dict:
    """Per workload: quartiles and spread of each metric, and the tracing overhead."""
    out = {}
    for name in dict.fromkeys(r["workload"] for r in records):
        entry = {}
        for trace in (0, 1):
            runs = [r["result"]["metrics"] for r in records
                    if r["workload"] == name and r["trace"] == trace]
            for metric in runs[0] if runs else ():
                q1, med, q3 = quartiles([m[metric]["value"] for m in runs])
                entry[metric] = {"q1": q1, "median": med, "q3": q3,
                                 "spread": (q3 - q1) / med if med else 0.0, "runs": len(runs)}
        if "trace.wall_s" in entry and "wall_s" in entry:
            entry["tracing_overhead_s"] = entry["trace.wall_s"]["median"] - entry["wall_s"]["median"]
        out[name] = entry
    return out


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list, b: list, better: str, bound: float | None) -> str:
    """Choosing-metrics section 8: a is the base (parent), b the change."""
    sign = 1.0 if better == "lower" else -1.0  # positive: b is worse
    q1, med_a, q3 = quartiles(a)
    med_b = statistics.median(b)
    spread = q3 - q1
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) > 0)
    diff = sign * (med_b - med_a)
    enough = len(pairs) >= 10  # section 8 asks for at least ten pairs
    if enough and wins >= 0.9 * len(pairs) and diff < 0 and -diff > spread:
        return "improved"
    if bound is None:
        if enough and losses >= 0.9 * len(pairs) and diff > spread:
            return "worse"
        return "same" if med_a == med_b else "unresolved"
    if (max(b) < min(a)) if sign > 0 else (min(b) > max(a)):
        return "no worse"
    if med_a and spread / abs(med_a) > bound:
        return "unresolved"
    if diff > bound * abs(med_a):
        return "worse"
    return "no worse"


def correctness_verdict(a: list, b: list) -> str:
    """ok_ratio has no tolerance: a change that fails any operation more is worse."""
    mean_a, mean_b = statistics.fmean(a), statistics.fmean(b)
    return "worse" if mean_b < mean_a else "improved" if mean_b > mean_a else "no worse"


def compare(path_a: Path, path_b: Path, bounds: dict) -> list:
    """Rows (workload, metric, med_a, q_a, med_b, q_b, ratio, verdict)."""
    runs_a = json.loads(path_a.read_text())["runs"]
    runs_b = json.loads(path_b.read_text())["runs"]

    def series(runs, workload, trace, metric):
        return [r["result"]["metrics"][metric]["value"] for r in runs
                if r["workload"] == workload and r["trace"] == trace
                and metric in r["result"]["metrics"]]

    rows = []
    workloads = sorted({r["workload"] for r in runs_a} & {r["workload"] for r in runs_b})
    for wl in workloads:
        for trace, table in ((0, END_TO_END), (1, PER_LAYER)):
            for metric in table:
                better = table[metric].better
                a = series(runs_a, wl, trace, metric)
                b = series(runs_b, wl, trace, metric)
                if not a or not b:
                    continue
                qa, qb = quartiles(a), quartiles(b)
                ratio = qb[1] / qa[1] if qa[1] else math.nan
                if metric == "ok_ratio":
                    v = correctness_verdict(a, b)
                else:
                    v = verdict(a, b, better, bounds.get(metric) if trace == 0 else None)
                rows.append((wl, metric, qa, qb, ratio, v))
    return rows


def print_compare(rows: list) -> None:
    print(f"{'workload':<11} {'metric':<40} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'new/base':>9}  verdict")
    for wl, metric, qa, qb, ratio, v in rows:
        fa = f"{qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}]"
        fb = f"{qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}]"
        print(f"{wl:<11} {metric:<40} {fa:>34} {fb:>34} {ratio:>9.4f}  {v}")


def benchmark_bounds() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=tuple(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path, help="also write the full record here")
    ap.add_argument("--series", type=Path, help="write a series of runs here")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("BASE.json", "NEW.json"))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "cavsim" / "cli.py").is_file():
        print(f"error: no cavsim sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.compare:
        print_compare(compare(*args.compare, benchmark_bounds()))
        return 0
    if args.self_test:
        import selftest

        return selftest.main(sys.modules[__name__])
    if args.series:
        run_series(args.series, int(args.seconds), args.first_seed)
        return 0
    if args.workload is None or args.seed is None:
        ap.error("--workload and --seed are required")
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be >= 0")
    record = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.record:
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    for problem in record["problems"]:
        print("problem:", problem, file=sys.stderr)
    print("stamp", json.dumps(record["stamp"], sort_keys=True))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
