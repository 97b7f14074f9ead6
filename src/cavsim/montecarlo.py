"""Fluctuation Monte Carlo and deterministic parameter sweeps.

A FluctuationSpec is one flat record: its fields are the keys of an mc
spec file, and the run metadata of every curve carries them unchanged.

Randomness is drawn from counter-based Philox streams keyed by
(seed, grid index), with a fixed draw order inside each stream
(cavity 1: C, kappa_ratio, delta_c, delta_a; cavity 2 likewise; then
the two interferometer phases). Consecutive grid points are evaluated
in blocks of about _BLOCK_TRIALS trials, one set of numpy calls per
block. Results are bit-identical however the points are grouped and
scheduled, including under the optional thread pool sized by the
CAVSIM_THREADS environment variable and capped at the number of CPUs.
The stream does not depend on the scheme, so one pass draws each grid
point and reflects each cavity once, and both schemes' kernels read
the same arrays. trials x workers is bounded by MAX_TRIALS_IN_FLIGHT
before anything is drawn.

Out-of-range draws are clamped, not resampled: C at 0 from below and
kappa_ratio into [0, 1]. Clamp counts are reported in the result
metadata (the kappa_ratio clamp fires at the percent level for the
standard fluctuation spec, which puts its mean two sigma below 1).

A trial that does not herald (analytic._heralds) is skipped and
counted, and the old scheme scores a trial over its heralded branches;
a grid point where no trial heralds raises NoHeraldError. write_json is
the package's one JSON artifact writer, and _linspace its one grid
builder, for sweep and mc alike.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace

from .analytic import NoHeraldError, _heralds, avg_fidelity_new, avg_fidelity_old, avg_success
from .cavity import CavityParams, reflection_amplitudes

__all__ = [
    "FluctuationSpec",
    "SweepResult",
    "standard_fluctuation_spec",
    "mc_infidelity_curve",
    "sweep_1d",
    "write_json",
]

_SCHEMES = ("new", "old")

# Bound on trials x workers for one mc run. Each worker holds one block's
# draws, reflections and kernel temporaries at a time, at most
# max(trials, _BLOCK_TRIALS) trials: ~264 bytes per trial, the peak-RSS
# slope of `mc --scheme both` on one thread between 2e5 and 1e6 trials.
# The bound keeps that near 1.1 GB.
MAX_TRIALS_IN_FLIGHT = 4_000_000

# A block, evaluated by one set of numpy calls, is max(1, _BLOCK_TRIALS
# // trials) consecutive grid points: one point at 8192 trials and up.
_BLOCK_TRIALS = 8192

# numpy's ziggurat standard normal stays below 13.71 in magnitude: its
# tail draw is r - ln(1 - U) / r with r = 3.654 and U <= 1 - 2**-53. So
# no draw exceeds top = |mean| + _Z_MAX sigma in magnitude, or C_max (1 +
# _Z_MAX sigma / mean) for C along the grid. A run is refused if its tops
# could overflow a kappa_ratio draw, phi2 - phi1, or, in
# reflection_amplitudes, 2 C, the denominator (i delta_c + 1)(i delta_a
# + 1) + 2 C or the numerator 2 kappa_ratio (i delta_a + 1).
_Z_MAX = 14.0
_FLOAT_MAX = sys.float_info.max


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


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """The package's one grid builder: n >= 1 evenly spaced floats from lo
    to hi, equal bit for bit to np.linspace(lo, hi, n), whose arithmetic
    this repeats. n = 1 gives [lo]; where the step underflows to zero it
    scales i / (n - 1) by the width instead."""
    if n < 1:
        raise ValueError(f"a grid needs at least 1 point, got {n}")
    if n == 1:
        return [lo]
    div = n - 1
    delta = hi - lo
    step = delta / div
    if step == 0:
        values = [i / div * delta + lo for i in range(n)]
    else:
        values = [i * step + lo for i in range(n)]
    values[-1] = hi
    return values


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
            fh.write("x,mean,stderr\n")
            fh.writelines(f"{x:.12g},{m:.12g},{e:.12g}\n" for x, m, e in self.rows())

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


def _top(spec: FluctuationSpec, name: str) -> float:
    """The largest magnitude a draw of `name` can reach."""
    return abs(getattr(spec, name + "_mean")) + _Z_MAX * getattr(spec, name + "_sigma")


def _mc_block(spec: FluctuationSpec, schemes: tuple, block: list):
    """Infidelity statistics of each scheme in `schemes` at a block of
    consecutive grid points, given as (index, C) pairs.

    Each point's Philox stream is drawn once, as one slab of standard
    normals with a row per parameter in _DRAWN order; the block's slabs
    form one (points, rows, trials) array, scaled in place (bit-equal to
    one rng.normal call per parameter and point). One bit generator is
    reset to each point's [seed, index] key: cheaper than a new one per
    point, which would pull OS entropy for a seed it ignores. Each cavity
    is reflected once per block and every scheme's kernel reads those
    shared arrays.
    Trailing rows whose sigma is 0 are not drawn but hold 0, so they
    scale to their mean, as a drawn row does (row * 0 + mean == mean);
    the drawn rows are the same prefix of the stream. A sigma-0 row
    before a drawn one is drawn: the normals consume the stream
    unevenly, so skipping it would move every row after it. Where both
    phase rows are undrawn, the kernels read one element of each point's
    rows and broadcast it.
    Returns per scheme one (mean, stderr, skipped) per point, None where
    nothing heralds, then the block's clamp counts.
    """
    import numpy as np

    live = len(_DRAWN)
    while live and getattr(spec, _DRAWN[live - 1] + "_sigma") == 0.0:
        live -= 1
    rows = np.empty((len(block), len(_DRAWN), spec.trials))
    bits = np.random.Philox(key=np.array([spec.seed, 0], dtype=np.uint64))
    rng, fresh = np.random.Generator(bits), bits.state
    for slab, (index, _) in zip(rows, block):
        fresh["state"]["key"][1] = index
        bits.state = fresh
        rng.standard_normal(out=slab[:live])
    rows[:, live:] = 0.0
    params = rows.transpose(1, 0, 2)  # one (points, trials) view per parameter
    c_means = np.array([[c] for _, c in block])
    for row, name in zip(params, _DRAWN):
        mean, sigma = getattr(spec, name + "_mean"), getattr(spec, name + "_sigma")
        if name in ("cavity1_c", "cavity2_c"):  # sigma / mean stays fixed along the grid
            mean, sigma = c_means, sigma / mean * c_means
        row *= sigma
        row += mean
    c1, k1, dc1, da1, c2, k2, dc2, da2, f1, f2 = params
    clamped_c = clamped_kr = 0
    for c, kr in ((c1, k1), (c2, k2)):
        clamped_c += int(np.count_nonzero(c < 0.0))
        clamped_kr += int(np.count_nonzero((kr < 0.0) | (kr > 1.0)))
        np.maximum(c, 0.0, out=c)
        np.maximum(kr, 0.0, out=kr)
        np.minimum(kr, 1.0, out=kr)

    rc1, rnc1 = reflection_amplitudes(c1, dc1, da1, k1)
    rc2, rnc2 = reflection_amplitudes(c2, dc2, da2, k2)
    if live <= _DRAWN.index("phi1"):  # both phases constant: one value per point, broadcast
        f1, f2 = f1[:, :1], f2[:, :1]
    stats = [_infidelity_stats(s, rc1, rnc1, rc2, rnc2, f1, f2) for s in schemes]
    return stats, clamped_c, clamped_kr


def _infidelity_stats(scheme: str, rc1, rnc1, rc2, rnc2, f1, f2):
    """One (mean, stderr, skipped) per point (row) of one scheme's
    infidelity over the heralded trials, or None where none heralds. If
    every trial of the block heralds, the rows reduce together, else one
    compressed row at a time: numpy sums each row pairwise either way, as
    it sums a 1-d array. Its temporaries die on return."""
    import numpy as np

    from .entangle import _bell_new_core, _bell_old_core

    if scheme == "new":
        num, p_herald = _bell_new_core(rc1, rnc1, rc2, rnc2, np.exp(1j * (f2 - f1)))
    else:
        # herald-probability-weighted average over the heralded branches
        num_phi, p_phi, num_psi, p_psi = _bell_old_core(rc1, rnc1, rc2, rnc2)
        num, p_herald = num_phi + num_psi, p_phi + p_psi
    with np.errstate(divide="ignore", invalid="ignore"):
        infid = 1.0 - num / p_herald
    heralded = _heralds(p_herald)
    if heralded.all():
        return _row_stats(infid, 0)
    kept = (row[keep] for row, keep in zip(infid, heralded))
    return [_row_stats(k[None], infid.shape[1] - k.size)[0] if k.size else None for k in kept]


def _row_stats(infid, skipped: int):
    """(mean, stderr, skipped) of each row of a 2-d array of infidelities."""
    import numpy as np

    n = infid.shape[1]
    means = np.mean(infid, axis=1).tolist()
    errs = (np.std(infid, axis=1, ddof=1) / math.sqrt(n)).tolist() if n > 1 else [0.0] * len(means)
    return [(m, e, skipped) for m, e in zip(means, errs)]


def _moving_average(means, stderrs, window: int):
    """Centered moving average, cut at the grid's ends. The windows inside
    the grid reduce as one strided view, bit-equal to one slice each."""
    import numpy as np

    means = np.asarray(means, dtype=float)
    squares = np.square(np.asarray(stderrs, dtype=float))
    n = len(means)
    half = window // 2
    full = max(0, n - window + 1)  # windows inside the grid, centred on half .. half + full - 1
    out_m = []
    out_e = []
    for i in range(n):
        if i == half and full:
            # sliding_window_view's views, built at a tenth of its call cost
            m, s = (np.ndarray((full, window), float, x, strides=x.strides * 2)
                    for x in (means, squares))
            out_m += (np.add.reduce(m, axis=1) / window).tolist()  # np.mean's sum and divide
            out_e += (np.sqrt(np.add.reduce(s, axis=1)) / window).tolist()
        if half <= i < half + full:
            continue
        lo = max(0, i - half)
        hi = min(n, i + (window + 1) // 2)
        out_m.append(float(np.mean(means[lo:hi])))
        out_e.append(float(np.sqrt(np.sum(squares[lo:hi])) / (hi - lo)))
    return out_m, out_e


def mc_infidelity_curve(
    spec: FluctuationSpec, scheme: str, c_grid=None
) -> SweepResult | tuple[SweepResult, SweepResult]:
    """Mean atom-atom infidelity versus cooperativity under fluctuations.

    For each grid point both cavities are redrawn spec.trials times with
    every parameter fluctuating; the new scheme evaluates the (common)
    heralded Bell fidelity including the two drawn interferometer
    phases, the old scheme the herald-probability-weighted average of
    its heralded branches. Per-point means are then smoothed with a centered
    moving average of `spec.window` neighboring points (window 1 leaves
    them untouched). Samples where nothing heralds are skipped and
    counted in the metadata; a grid point where no sample heralds
    raises NoHeraldError (the new scheme's first such point is reported
    before the old scheme's).

    c_grid defaults to 500 points from 1 to 10, the grid of the mc
    command. scheme "new" or "old" returns one SweepResult; "both"
    returns the (new, old) pair from a single pass over the grid, each
    curve equal bit for bit to its own single-scheme call. A run whose
    trials times workers exceeds MAX_TRIALS_IN_FLIGHT, or whose draws
    could overflow (see _Z_MAX), raises ValueError before any draw.
    """
    import numpy as np

    if scheme not in _SCHEMES + ("both",):
        raise ValueError(f"unknown scheme {scheme!r}; expected 'new', 'old' or 'both'")
    schemes = _SCHEMES if scheme == "both" else (scheme,)
    grid = np.asarray(_linspace(1.0, 10.0, 500) if c_grid is None else c_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("c_grid must be a non-empty 1-d array")
    if not np.all(grid > 0.0):  # a NaN fails it
        raise ValueError("cooperativity grid values must be positive")
    for k in (1, 2):
        rel = getattr(spec, f"cavity{k}_c_sigma") / getattr(spec, f"cavity{k}_c_mean")
        c_top = float(grid.max()) * (1.0 + _Z_MAX * rel)
        dc, da, kr = (_top(spec, f"cavity{k}_{p}") for p in ("delta_c", "delta_a", "kappa_ratio"))
        if not (2.0 * c_top + dc * da + 1.0 < _FLOAT_MAX and 2.0 * da < _FLOAT_MAX):
            raise ValueError(
                f"cooperativity grid up to {float(grid.max()):g} with cavity{k} C sigma/mean "
                f"{rel:g} and |delta_c|, |delta_a| up to {dc:g}, {da:g} can draw values where "
                "2 C + delta_c delta_a, 2 delta_a or 2 C overflows"
            )
        if not math.isfinite(kr):
            raise ValueError(f"cavity{k}_kappa_ratio mean and sigma can draw an infinity")
    if not math.isfinite(_top(spec, "phi1") + _top(spec, "phi2")):
        raise ValueError("phi1 and phi2 means and sigmas can draw phases whose difference overflows")

    points = list(enumerate(grid.tolist()))
    size = max(1, _BLOCK_TRIALS // spec.trials)
    blocks = [points[i:i + size] for i in range(0, len(points), size)]
    workers = min(_n_threads(), len(blocks))
    if spec.trials * workers > MAX_TRIALS_IN_FLIGHT:
        raise ValueError(
            f"{spec.trials} trials on {workers} worker(s) exceed the memory bound of "
            f"{MAX_TRIALS_IN_FLIGHT} trials x workers; use fewer trials or CAVSIM_THREADS"
        )
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda block: _mc_block(spec, schemes, block), blocks))
    else:
        results = [_mc_block(spec, schemes, block) for block in blocks]

    clamped_c = sum(r[1] for r in results)
    clamped_kr = sum(r[2] for r in results)
    curves = []
    for k, name in enumerate(schemes):
        stats = [st for r in results for st in r[0][k]]
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
    zero (nothing is sampled). The averages reflect each point's cavity
    through cavity.reflection_lossy, which memoizes its last result on
    inputs that do not include zeta, so a zeta sweep reflects once.
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
