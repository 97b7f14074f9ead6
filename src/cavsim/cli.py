"""Command-line interface.

Commands:
  gate      one operating point, optionally cross-checked against the
            brute-force network simulation
  sweep     deterministic 1-d sweep of a Bloch-averaged quantity
  mc        fluctuation Monte Carlo infidelity curves
  validate  experiment reproduction report (nonzero exit on failure)

gate and sweep read an optional flat JSON --config file, mc a --spec
file. Flag values win over file values, which win over the command's
defaults; the defaults name every key the command accepts, and a file
value must fit the type of its default and is converted to it. gate's
cavity keys and sweep's keys are the CavityParams fields, mc's keys the
FluctuationSpec fields.

Exit codes: 0 success, 1 failed validation, 2 configuration error,
3 nothing heralds (the gate at its operating point, every trial of an
mc grid point, or the whole Bloch sphere at a sweep point). Exit 3
writes no file.

All emitted numbers carry 12 significant digits and files use LF line
endings; with a fixed seed, repeated runs are byte-identical (no
timestamps or machine identifiers in the output).
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .analytic import JointState, NoHeraldError, cz_new_from_reflections, cz_old_from_reflections
from .cavity import BASELINE_PARAMS, CavityParams, reflection_lossy
from .montecarlo import FluctuationSpec, _linspace, mc_infidelity_curve, sweep_1d, write_json

EXIT_VALIDATION_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NO_HERALD = 3

MAX_GRID_POINTS = 10**6  # --points bound of sweep and mc, checked before allocating

ORACLE_AGREEMENT_TOL = 1e-10

# default ranges of the comparison sweeps, one per supported axis
_AXIS_RANGES = {
    "zeta": (0.8, 1.0),
    "kappa_ratio": (0.7, 1.0),
    "delta_c": (0.0, 1.0),
    "c": (1.0, 10.0),
}


def _parse_complex(value) -> complex:
    try:
        return complex(value.replace(" ", "") if isinstance(value, str) else value)
    except (TypeError, ValueError):
        raise ValueError(f"cannot parse complex amplitude {value!r}") from None


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}j"


# The defaults of each command name every key its config file may set:
# gate evaluates an ideal box unless told otherwise, with an equal
# superposition where both amplitudes of a pair are None; sweeps default
# to the published comparison baseline
_GATE_DEFAULTS = {
    **asdict(CavityParams(c=4.0)),
    "phi": 0.0, "v_attenuation": 1.0, "alpha_p": None, "beta_p": None, "alpha": None, "beta": None,
}
_SWEEP_DEFAULTS = asdict(BASELINE_PARAMS)

_KIND_NAMES = {float: "a number", int: "an integer", type(None): "a complex amplitude or null"}


def _check_value(path, key: str, value, default):
    """A file value converted to the type of its default. Raise ValueError
    unless it can stand where the default does: a number or numeric
    string, integral where the default is an int, and also null or a
    complex string where it is None."""
    if value is None and default is None:
        return None
    kind = type(default)
    try:
        parsed = _parse_complex(value) if default is None else kind(value)
        if isinstance(value, bool) or kind is int and isinstance(value, float) and parsed != value:
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ValueError(
            f"config {path}: {key} must be {_KIND_NAMES[kind]}, got {json.dumps(value)}"
        ) from None
    return parsed


def _merged_config(args, path, defaults: dict) -> dict:
    """Flag values over file values over the command's defaults, whose
    keys are the keys the command accepts; each file value is converted
    to the type of its default."""
    merged = dict(defaults)
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"config {path}: invalid JSON ({exc})") from exc
        if not isinstance(cfg, dict):
            raise ValueError(f"config {path}: expected a flat JSON object")
        unknown = sorted(set(cfg) - set(defaults))
        if unknown:
            raise ValueError(f"config {path}: unknown keys {unknown}")
        for key, value in cfg.items():
            merged[key] = _check_value(path, key, value, defaults[key])
    for key in defaults:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


def _normalized_pair(cfg: dict, a: str, b: str) -> tuple[complex, complex]:
    """The amplitudes cfg[a], cfg[b] normalized at any finite scale; one
    left None reads 0j, both left None equal weights 1, which the one rule
    turns into JointState.equal_superposition()'s pair bit for bit. The
    pair is first divided by the power of two that brings its largest real
    or imaginary part into [0.5, 1): exact, so no norm overflows, and the
    result keeps the bits of the unscaled division unless one of its parts
    is below 2**-1021."""
    unset = 1 + 0j if cfg[a] is None and cfg[b] is None else 0j
    pair = [_parse_complex(cfg[key]) if cfg[key] is not None else unset for key in (a, b)]
    for key, z in zip((a, b), pair):
        if not cmath.isfinite(z):
            raise ValueError(f"{key} must be a finite amplitude, got {cfg[key]!r}")
    largest = max(abs(x) for z in pair for x in (z.real, z.imag))
    if largest == 0.0:
        raise ValueError(f"{a} and {b} cannot both vanish")
    e = math.frexp(largest)[1]
    za, zb = (complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)) for z in pair)
    norm = math.hypot(abs(za), abs(zb))
    return za / norm, zb / norm


def _state_from_config(cfg: dict) -> JointState:
    return JointState(*_normalized_pair(cfg, "alpha_p", "beta_p"),
                      *_normalized_pair(cfg, "alpha", "beta"))


def _gate_result_dict(res) -> dict:
    out = {
        "fidelity": res.fidelity,
        "success_probability": res.success_probability,
        "p_loss": res.p_loss,
        "p_h_reject": res.p_h_reject,
        "no_herald": res.no_herald,
    }
    if res.v_amplitude is not None:
        out["v_amplitude"] = res.v_amplitude
        out["h_amplitude"] = res.h_amplitude
    return out


def _write_artifact(out, name: str, write) -> None:
    """The one file writer: make the directory `out`, write out/name
    through write(path) and print `wrote PATH`."""
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    write(path)
    print(f"wrote {path}")


def _json_writer(payload: dict):
    """write(path) of one JSON artifact, for _write_artifact."""
    def write(path):
        with open(path, "w", newline="") as fh:
            write_json(payload, fh)

    return write


def _write_curves(args, prefix: str, curves) -> None:
    """Write each SweepResult as PREFIX_SCHEME.csv and .json, or in
    args.format alone, through its to_csv / to_json."""
    formats = ("csv", "json") if args.format is None else (args.format,)
    for curve in curves:
        for fmt in formats:
            name = f"{prefix}_{curve.metadata['scheme']}.{fmt}"
            _write_artifact(args.out, name, getattr(curve, f"to_{fmt}"))


def cmd_gate(args) -> int:
    cfg = _merged_config(args, args.config, _GATE_DEFAULTS)
    params = CavityParams(**{f.name: cfg[f.name] for f in fields(CavityParams)})
    state = _state_from_config(cfg)
    phi, att = cfg["phi"], cfg["v_attenuation"]
    for name, value in (("phi", phi), ("v_attenuation", att)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
        if args.scheme == "old" and value != _GATE_DEFAULTS[name]:
            raise ValueError(
                f"the old scheme has no interferometer: {name} must be "
                f"{_GATE_DEFAULTS[name]}, got {value}"
            )

    refl = reflection_lossy(params)
    new = args.scheme == "new"
    options = {"phi": phi, "v_attenuation": att} if new else {}
    res = (cz_new_from_reflections if new else cz_old_from_reflections)(
        refl, params.zeta, state, **options
    )
    if res.no_herald:
        raise NoHeraldError("gate heralds nothing at this operating point")

    payload = {
        "scheme": args.scheme,
        "params": asdict(params),
        "phi": phi,
        "v_attenuation": att,
        "state": {key: _fmt_complex(z) for key, z in asdict(state).items()},
        "result": _gate_result_dict(res),
    }
    if args.oracle:
        from . import oracle

        net = (oracle.run_cz_new if new else oracle.run_cz_old)(refl, params.zeta, state, **options)
        if net.no_herald:
            print("error: oracle heralds nothing at this operating point", file=sys.stderr)
            return EXIT_VALIDATION_FAILED
        deviation = max(
            abs(net.fidelity - res.fidelity),
            abs(net.success_probability - res.success_probability),
            abs(net.p_loss - res.p_loss),
        )
        payload["oracle"] = _gate_result_dict(net)
        payload["oracle_max_deviation"] = deviation
        if deviation > ORACLE_AGREEMENT_TOL:
            print(
                f"error: oracle deviates from the closed form by {deviation:.3e}",
                file=sys.stderr,
            )
            return EXIT_VALIDATION_FAILED

    if args.out is not None:
        _write_artifact(args.out, "gate.json", _json_writer(payload))
    elif args.format == "json":
        write_json(payload, sys.stdout)
    else:
        for key, val in payload["result"].items():
            if isinstance(val, float):
                print(f"{key} {val:.12g}")
            else:
                print(f"{key} {val}")
        if args.oracle:
            print(f"oracle_max_deviation {payload['oracle_max_deviation']:.3e}")
    return 0


def cmd_sweep(args) -> int:
    base = CavityParams(**_merged_config(args, args.config, _SWEEP_DEFAULTS))
    lo, hi = _AXIS_RANGES[args.axis]
    lo = args.min if args.min is not None else lo
    hi = args.max if args.max is not None else hi
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"bad sweep range [{lo}, {hi}]")
    if not 2 <= args.points <= MAX_GRID_POINTS:
        raise ValueError(f"sweep needs 2 to {MAX_GRID_POINTS} points, got {args.points}")
    values = _linspace(lo, hi, args.points)
    schemes = ("new", "old") if args.scheme == "both" else (args.scheme,)
    results = [sweep_1d(base, args.axis, values, scheme, args.quantity) for scheme in schemes]
    _write_curves(args, f"sweep_{args.axis}_{args.quantity}", results)
    return 0


def _mc_process_policy() -> None:
    """Keep the memory each grid point frees for the next one, and start
    no idle BLAS threads (mc calls no BLAS routine; a value the user has
    set wins). The allocator part needs glibc's mallopt and is skipped
    where libc has none."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # M_TRIM_THRESHOLD (-1) at the largest int: never trim; M_MMAP_THRESHOLD
    # (-3) at its 64-bit maximum, 32 MiB. Setting either one ends glibc's
    # dynamic adjustment of both.
    mallopt(-1, 2**31 - 1)
    mallopt(-3, 1 << 25)


def cmd_mc(args) -> int:
    _mc_process_policy()
    cfg = _merged_config(args, args.spec, asdict(FluctuationSpec()))
    if args.sigma_phi is not None:
        cfg["phi1_sigma"] = cfg["phi2_sigma"] = args.sigma_phi
    spec = FluctuationSpec(**cfg)
    if not (math.isfinite(args.cmin) and math.isfinite(args.cmax) and 0.0 < args.cmin < args.cmax):
        raise ValueError(f"bad cooperativity range [{args.cmin}, {args.cmax}]")
    if not 1 <= args.points <= MAX_GRID_POINTS:
        raise ValueError(f"mc needs 1 to {MAX_GRID_POINTS} grid points, got {args.points}")
    result = mc_infidelity_curve(spec, args.scheme, _linspace(args.cmin, args.cmax, args.points))
    _write_curves(args, "mc", result if args.scheme == "both" else (result,))
    return 0


def cmd_validate(args) -> int:
    from .validate import run_all

    reports = run_all()
    for report in reports:
        for line in report.lines():
            print(line)
    ok = all(r.passed for r in reports)
    if args.out is not None:
        payload = {"passed": ok, "reports": [r.to_dict() for r in reports]}
        _write_artifact(args.out, "validation.json", _json_writer(payload))
    print("validation " + ("PASSED" if ok else "FAILED"))
    return 0 if ok else EXIT_VALIDATION_FAILED


def _add_gate_params(sub, with_state: bool) -> None:
    sub.add_argument("--c", type=float, default=None, help="cooperativity")
    sub.add_argument(
        "--dc", dest="delta_c", type=float, default=None, help="fractional photon-cavity detuning"
    )
    sub.add_argument(
        "--da", dest="delta_a", type=float, default=None, help="fractional photon-atom detuning"
    )
    sub.add_argument(
        "--kr", dest="kappa_ratio", type=float, default=None,
        help="fraction of cavity decay through the coupling mirror",
    )
    sub.add_argument("--zeta", type=float, default=None, help="mode-matching efficiency")
    sub.add_argument("--config", default=None, help="flat JSON file; flags override it")
    if with_state:
        sub.add_argument("--phi", type=float, default=None, help="interferometer phase offset")
        sub.add_argument(
            "--v-attenuation", dest="v_attenuation", type=float, default=None,
            help="amplitude transmission of the noninteracting arm",
        )
        for flag, descr in (
            ("--alpha-p", "photon amplitude on the noninteracting polarization"),
            ("--beta-p", "photon amplitude on the interacting polarization"),
            ("--alpha", "atomic amplitude on the uncoupled state"),
            ("--beta", "atomic amplitude on the coupled state"),
        ):
            sub.add_argument(
                flag, dest=flag.lstrip("-").replace("-", "_"), default=None,
                help=f"{descr} (complex, e.g. 0.6+0.8j); pairs are renormalized",
            )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavsim",
        description="Cavity-mediated atom-photon gate simulator",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gate = commands.add_parser("gate", help="evaluate one operating point")
    gate.add_argument("--scheme", choices=("new", "old"), required=True)
    _add_gate_params(gate, with_state=True)
    gate.add_argument(
        "--oracle", action="store_true",
        help="cross-check against the brute-force network simulation",
    )
    gate.add_argument("--format", choices=("text", "json"), default="text")
    gate.add_argument("--out", default=None, help="directory for gate.json")
    gate.set_defaults(func=cmd_gate)

    sweep = commands.add_parser(
        "sweep", help="sweep a Bloch-averaged quantity along one axis"
    )
    sweep.add_argument("--scheme", choices=("new", "old", "both"), required=True)
    sweep.add_argument("--axis", choices=tuple(_AXIS_RANGES), required=True)
    sweep.add_argument(
        "--quantity", choices=("fidelity", "success"), default="fidelity"
    )
    sweep.add_argument("--min", type=float, default=None, help="axis start")
    sweep.add_argument("--max", type=float, default=None, help="axis end")
    sweep.add_argument("--points", type=int, default=101)
    _add_gate_params(sweep, with_state=False)
    sweep.add_argument("--format", choices=("csv", "json"), default=None)
    sweep.add_argument("--out", default=".", help="output directory")
    sweep.set_defaults(func=cmd_sweep)

    mc = commands.add_parser("mc", help="fluctuation Monte Carlo infidelity curve")
    mc.add_argument("--scheme", choices=("new", "old", "both"), required=True)
    mc.add_argument("--spec", default=None, help="flat JSON fluctuation spec")
    mc.add_argument("--trials", type=int, default=None)
    mc.add_argument("--seed", type=int, default=None)
    mc.add_argument("--window", type=int, default=None, help="moving-average width")
    mc.add_argument(
        "--sigma-phi", dest="sigma_phi", type=float, default=None,
        help="std dev of both interferometer phases",
    )
    mc.add_argument("--points", type=int, default=500)
    mc.add_argument("--cmin", type=float, default=1.0)
    mc.add_argument("--cmax", type=float, default=10.0)
    mc.add_argument("--format", choices=("csv", "json"), default=None)
    mc.add_argument("--out", default=".", help="output directory")
    mc.set_defaults(func=cmd_mc)

    val = commands.add_parser("validate", help="experiment reproduction report")
    val.add_argument("--out", default=None, help="directory for validation.json")
    val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NoHeraldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_HERALD
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
