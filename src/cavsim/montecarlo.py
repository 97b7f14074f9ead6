"""Fluctuation Monte Carlo and deterministic parameter sweeps.

A FluctuationSpec is one flat record: its fields are the keys of an mc
spec file, and the run metadata of every curve carries them unchanged.

Randomness is drawn from counter-based Philox streams keyed by
(seed, grid index), with a fixed draw order inside each stream
(cavity 1: C, kappa_ratio, delta_c, delta_a; cavity 2 likewise; then
the two interferometer phases). Results are therefore bit-identical
however the grid points are scheduled, including under the optional
thread pool sized by the CAVSIM_THREADS environment variable and capped
at the number of CPUs. The stream does not depend on the scheme, so
one pass draws each grid point and reflects each cavity once, and both
schemes' kernels read the same arrays. trials x workers is bounded by
MAX_TRIALS_IN_FLIGHT before anything is drawn.

Out-of-range draws are clamped, not resampled: C at 0 from below and
kappa_ratio into [0, 1]. Clamp counts are reported in the result
metadata (the kappa_ratio clamp fires at the percent level for the
standard fluctuation spec, which puts its mean two sigma below 1).

A trial whose herald probability is below analytic.HERALD_TOL is
skipped and counted; a grid point where no trial heralds raises
NoHeraldError. write_json is the package's one JSON artifact writer.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace

from .analytic import HERALD_TOL, NoHeraldError, avg_fidelity_new, avg_fidelity_old, avg_success
from .cavity import CavityParams, reflection_amplitudes

__all__ = [
    "FluctuationSpec",
    "SweepResult",
    "standard_fluctuation_spec",
    "default_c_grid",
    "mc_infidelity_curve",
    "sweep_1d",
    "write_json",
]

_SCHEMES = ("new", "old")

# Bound on trials x workers for one mc run. Each worker holds one grid
# point's draws, reflections and kernel temporaries at a time: ~264
# bytes per trial, the peak-RSS slope of `mc --scheme both` on one
# thread between 2e5 and 1e6 trials. The bound keeps that near 1.1 GB.
MAX_TRIALS_IN_FLIGHT = 4_000_000

# numpy's ziggurat standard normal stays below 13.71 in magnitude: its
# tail draw is r - ln(1 - U) / r with r = 3.654 and U <= 1 - 2**-53. A C
# grid is refused if C_max (1 + _Z_MAX sigma / mean) could overflow the
# 2 C of reflection_amplitudes.
_Z_MAX = 14.0
_C_LIMIT = sys.float_info.max / 2.0


@dataclass(frozen=True)
class FluctuationSpec:
    """Gaussian fluctuations of both cavities' parameters and of the two
    interferometer phases, plus the run's trials, seed and smoothing
    window. The fields are the keys of an mc spec file and of the run
    metadata; the defaults are the standard spec.

    Along a cooperativity grid each cavity's C distribution is rescaled
    so that sigma/mean stays fixed (the standard spec fluctuates C by
    10% of its grid value).
    """

    cavity1_c_mean: float = 4.0
    cavity1_c_sigma: float = 0.4
    cavity1_kappa_ratio_mean: float = 0.9
    cavity1_kappa_ratio_sigma: float = 0.05
    cavity1_delta_c_mean: float = 0.0
    cavity1_delta_c_sigma: float = 0.05
    cavity1_delta_a_mean: float = 0.0
    cavity1_delta_a_sigma: float = 0.05
    cavity2_c_mean: float = 4.0
    cavity2_c_sigma: float = 0.4
    cavity2_kappa_ratio_mean: float = 0.9
    cavity2_kappa_ratio_sigma: float = 0.05
    cavity2_delta_c_mean: float = 0.0
    cavity2_delta_c_sigma: float = 0.05
    cavity2_delta_a_mean: float = 0.0
    cavity2_delta_a_sigma: float = 0.05
    phi1_mean: float = 0.0
    phi1_sigma: float = 0.0
    phi2_mean: float = 0.0
    phi2_sigma: float = 0.0
    trials: int = 10_000
    seed: int = 2024
    window: int = 50

    def __post_init__(self):
        for key, value in vars(self).items():
            if key.endswith(("_mean", "_sigma")) and not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
            if key.endswith("_sigma") and value < 0.0:
                raise ValueError(f"{key} must be >= 0")
            if key in ("cavity1_c_mean", "cavity2_c_mean") and value <= 0.0:
                raise ValueError(f"{key} must be positive (it sets the relative sigma)")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in a uint64")
        if self.window < 1:
            raise ValueError("window must be >= 1")


def standard_fluctuation_spec(
    trials: int = 10_000, seed: int = 2024, sigma_phi: float = 0.0
) -> FluctuationSpec:
    """The standard spec with both phases drawn as N(0, sigma_phi)."""
    return FluctuationSpec(phi1_sigma=sigma_phi, phi2_sigma=sigma_phi, trials=trials, seed=seed)


def default_c_grid(points: int = 500, c_min: float = 1.0, c_max: float = 10.0):
    import numpy as np

    return np.linspace(c_min, c_max, points)


@dataclass(frozen=True)
class SweepResult:
    """One curve: grid, mean values, standard errors, run metadata."""

    xs: tuple
    means: tuple
    stderrs: tuple
    metadata: dict

    def rows(self):
        return list(zip(self.xs, self.means, self.stderrs))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["x", "mean", "stderr"])
            for x, m, e in self.rows():
                writer.writerow([f"{x:.12g}", f"{m:.12g}", f"{e:.12g}"])

    def to_json(self, path) -> None:
        with open(path, "w", newline="") as fh:
            write_json(self.to_dict(), fh)

    def to_dict(self) -> dict:
        return {
            "metadata": self.metadata,
            "columns": ["x", "mean", "stderr"],
            "rows": [list(row) for row in self.rows()],
        }


def write_json(payload, fh) -> None:
    """Write one JSON artifact: floats rounded to 12 significant digits,
    sorted keys, indent 2, a trailing LF, and no NaN or infinity."""
    fh.write(json.dumps(_rounded(payload), indent=2, sort_keys=True, allow_nan=False) + "\n")


def _rounded(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    np = sys.modules.get("numpy")  # no numpy scalar exists unless numpy is loaded
    if np is not None and isinstance(obj, np.generic):
        # stray numpy scalar (np.bool_, np.int64, ...): unwrap for json
        return _rounded(obj.item())
    return obj


def _n_threads() -> int:
    raw = os.environ.get("CAVSIM_THREADS", "1")
    try:
        n = int(raw)
    except ValueError as exc:
        raise ValueError(f"CAVSIM_THREADS must be an integer, got {raw!r}") from exc
    if n < 1:
        raise ValueError("CAVSIM_THREADS must be >= 1")
    return min(n, os.cpu_count() or 1)


# the fixed draw order of a grid point's stream
_DRAWN = tuple(
    f"cavity{k}_{name}" for k in (1, 2) for name in ("c", "kappa_ratio", "delta_c", "delta_a")
) + ("phi1", "phi2")


def _mc_point(spec: FluctuationSpec, schemes: tuple, c_mean: float, index: int):
    """Infidelity statistics of each scheme in `schemes` at one grid point.

    The point's Philox stream is drawn once, as one block of standard
    normals with a row per parameter in _DRAWN order, scaled in place
    (bit-equal to one rng.normal call per parameter); each cavity is
    reflected once and every scheme's kernel reads those shared arrays.
    Returns one (mean, stderr, skipped) per scheme, None where nothing
    heralds, then the clamp counts.
    """
    import numpy as np

    rng = np.random.Generator(
        np.random.Philox(key=np.array([spec.seed, index], dtype=np.uint64))
    )
    rows = rng.standard_normal(len(_DRAWN) * spec.trials).reshape(len(_DRAWN), -1)
    for row, name in zip(rows, _DRAWN):
        mean, sigma = getattr(spec, name + "_mean"), getattr(spec, name + "_sigma")
        if name in ("cavity1_c", "cavity2_c"):  # sigma / mean stays fixed along the grid
            mean, sigma = c_mean, sigma / mean * c_mean
        row *= sigma
        row += mean
    c1, k1, dc1, da1, c2, k2, dc2, da2, f1, f2 = rows
    clamped_c = clamped_kr = 0
    for c, kr in ((c1, k1), (c2, k2)):
        clamped_c += int(np.count_nonzero(c < 0.0))
        clamped_kr += int(np.count_nonzero((kr < 0.0) | (kr > 1.0)))
        np.maximum(c, 0.0, out=c)
        np.maximum(kr, 0.0, out=kr)
        np.minimum(kr, 1.0, out=kr)

    rc1, rnc1 = reflection_amplitudes(c1, dc1, da1, k1)
    rc2, rnc2 = reflection_amplitudes(c2, dc2, da2, k2)
    stats = [_infidelity_stats(s, rc1, rnc1, rc2, rnc2, f1, f2) for s in schemes]
    return stats, clamped_c, clamped_kr


def _infidelity_stats(scheme: str, rc1, rnc1, rc2, rnc2, f1, f2):
    """(mean, stderr, skipped) of one scheme's infidelity over the heralded
    trials, or None if none heralds. Its temporaries die on return."""
    import numpy as np

    from .entangle import _bell_new_core, _bell_old_core

    if scheme == "new":
        num, weight = _bell_new_core(rc1, rnc1, rc2, rnc2, np.exp(1j * (f2 - f1)))
        p_herald = 0.5 * weight
        with np.errstate(divide="ignore", invalid="ignore"):
            fid = num / weight
    else:
        num_phi, den_phi, num_psi, den_psi = _bell_old_core(rc1, rnc1, rc2, rnc2)
        total = den_phi + den_psi
        p_herald = total / 16.0
        with np.errstate(divide="ignore", invalid="ignore"):
            # herald-probability-weighted average over the two branches
            fid = (num_phi + num_psi) / total
    infid = 1.0 - fid[p_herald >= HERALD_TOL]
    n_valid = infid.size
    if n_valid == 0:
        return None
    mean = float(np.mean(infid))
    stderr = float(np.std(infid, ddof=1) / math.sqrt(n_valid)) if n_valid > 1 else 0.0
    return mean, stderr, fid.size - n_valid


def _moving_average(means, stderrs, window: int):
    import numpy as np

    n = len(means)
    out_m = []
    out_e = []
    for i in range(n):
        lo = max(0, i - window // 2)
        hi = min(n, i + (window + 1) // 2)
        seg = means[lo:hi]
        err = stderrs[lo:hi]
        out_m.append(float(np.mean(seg)))
        out_e.append(float(np.sqrt(np.sum(np.square(err))) / len(seg)))
    return out_m, out_e


def mc_infidelity_curve(
    spec: FluctuationSpec, scheme: str, c_grid=None
) -> SweepResult | tuple[SweepResult, SweepResult]:
    """Mean atom-atom infidelity versus cooperativity under fluctuations.

    For each grid point both cavities are redrawn spec.trials times with
    every parameter fluctuating; the new scheme evaluates the (common)
    heralded Bell fidelity including the two drawn interferometer
    phases, the old scheme the herald-probability-weighted average of
    its two branches. Per-point means are then smoothed with a centered
    moving average of `spec.window` neighboring points (window 1 leaves
    them untouched). Samples where nothing heralds are skipped and
    counted in the metadata; a grid point where no sample heralds
    raises NoHeraldError (the new scheme's first such point is reported
    before the old scheme's).

    scheme "new" or "old" returns one SweepResult; "both" returns the
    (new, old) pair from a single pass over the grid, each curve equal
    bit for bit to its own single-scheme call. A run whose trials times
    workers exceeds MAX_TRIALS_IN_FLIGHT, or whose C draws could overflow
    2 C, raises ValueError before any draw.
    """
    import numpy as np

    if scheme not in _SCHEMES + ("both",):
        raise ValueError(f"unknown scheme {scheme!r}; expected 'new', 'old' or 'both'")
    schemes = _SCHEMES if scheme == "both" else (scheme,)
    grid = default_c_grid() if c_grid is None else np.asarray(c_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("c_grid must be a non-empty 1-d array")
    if np.any(grid <= 0.0):
        raise ValueError("cooperativity grid values must be positive")
    for k in (1, 2):
        rel = getattr(spec, f"cavity{k}_c_sigma") / getattr(spec, f"cavity{k}_c_mean")
        if not float(grid.max()) * (1.0 + _Z_MAX * rel) <= _C_LIMIT:
            raise ValueError(
                f"cooperativity grid up to {float(grid.max()):g} with cavity{k} C sigma/mean "
                f"{rel:g} can draw C above {_C_LIMIT:g}, where 2 C overflows"
            )

    points = list(enumerate(grid))
    workers = min(_n_threads(), len(points))
    if spec.trials * workers > MAX_TRIALS_IN_FLIGHT:
        raise ValueError(
            f"{spec.trials} trials on {workers} worker(s) exceed the memory bound of "
            f"{MAX_TRIALS_IN_FLIGHT} trials x workers; use fewer trials or CAVSIM_THREADS"
        )
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda iv: _mc_point(spec, schemes, iv[1], iv[0]), points))
    else:
        results = [_mc_point(spec, schemes, c, i) for i, c in points]

    clamped_c = sum(r[1] for r in results)
    clamped_kr = sum(r[2] for r in results)
    curves = []
    for k, name in enumerate(schemes):
        stats = [r[0][k] for r in results]
        for c, st in zip(grid, stats):
            if st is None:
                raise NoHeraldError(
                    f"nothing heralds in any of the {spec.trials} trials at C = {c:.6g}"
                )
        means, errs = _moving_average([st[0] for st in stats], [st[1] for st in stats],
                                      spec.window)
        meta = asdict(spec)
        meta.update(
            {
                "kind": "mc_infidelity_curve",
                "scheme": name,
                "skipped_no_herald": sum(st[2] for st in stats),
                "clamped_c": clamped_c,
                "clamped_kappa_ratio": clamped_kr,
                "grid_points": int(grid.size),
            }
        )
        curves.append(
            SweepResult(
                xs=tuple(float(x) for x in grid),
                means=tuple(means),
                stderrs=tuple(errs),
                metadata=meta,
            )
        )
    return tuple(curves) if scheme == "both" else curves[0]


_SWEEP_AXES = ("zeta", "kappa_ratio", "delta_c", "c")
_QUANTITIES = ("fidelity", "success")


def sweep_1d(
    base: CavityParams, axis: str, values, scheme: str, quantity: str = "fidelity"
) -> SweepResult:
    """Deterministic sweep of a Bloch-averaged quantity along one axis.

    axis is one of zeta / kappa_ratio / delta_c / c; quantity selects
    the averaged fidelity or success probability. Standard errors are
    zero (nothing is sampled).
    """
    if axis not in _SWEEP_AXES:
        raise ValueError(f"unknown axis {axis!r}; expected one of {_SWEEP_AXES}")
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected 'new' or 'old'")
    if quantity not in _QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}; expected one of {_QUANTITIES}")
    xs = [float(v) for v in values]
    means = []
    for v in xs:
        p = replace(base, **{axis: v})
        if quantity == "success":
            means.append(avg_success(p, scheme))
        elif scheme == "new":
            means.append(avg_fidelity_new(p))
        else:
            means.append(avg_fidelity_old(p))
    meta = {"kind": "sweep_1d", "axis": axis, "scheme": scheme, "quantity": quantity}
    meta.update({f"base_{key}": value for key, value in asdict(base).items()})
    return SweepResult(
        xs=tuple(xs),
        means=tuple(means),
        stderrs=tuple(0.0 for _ in xs),
        metadata=meta,
    )
