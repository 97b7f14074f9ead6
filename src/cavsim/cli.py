"""Command-line interface.

Commands:
  gate      one operating point, optionally cross-checked against the
            brute-force network simulation
  sweep     deterministic 1-d sweep of a Bloch-averaged quantity
  mc        fluctuation Monte Carlo infidelity curves
  validate  experiment reproduction report (nonzero exit on failure)

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
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import validate as validate_mod
from .analytic import JointState, NoHeraldError, cz_new, cz_old
from .cavity import CavityParams, reflection_lossy
from .montecarlo import (
    FluctuationSpec,
    GaussianSpec,
    standard_fluctuation_spec,
    mc_infidelity_curve,
    sweep_1d,
    write_json,
)
from .oracle import run_cz_new, run_cz_old

EXIT_VALIDATION_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NO_HERALD = 3

MAX_GRID_POINTS = 10**6  # --points bound of sweep and mc, checked before allocating

ORACLE_AGREEMENT_TOL = 1e-10

_GATE_PARAM_KEYS = ("c", "delta_c", "delta_a", "kappa_ratio", "zeta")
_GATE_EXTRA_KEYS = ("phi", "v_attenuation", "alpha_p", "beta_p", "alpha", "beta")

# default ranges of the comparison sweeps, one per supported axis
_AXIS_RANGES = {
    "zeta": (0.8, 1.0),
    "kappa_ratio": (0.7, 1.0),
    "delta_c": (0.0, 1.0),
    "c": (1.0, 10.0),
}


def _parse_complex(value) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    if isinstance(value, str):
        try:
            return complex(value.replace(" ", ""))
        except ValueError:
            pass
    raise ValueError(f"cannot parse complex amplitude {value!r}")


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}j"


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValueError(f"config {path}: expected a flat JSON object")
    return data


# gate evaluates an ideal box unless told otherwise; sweeps default to
# the published comparison baseline
_GATE_DEFAULTS = {"c": 4.0, "delta_c": 0.0, "delta_a": 0.0, "kappa_ratio": 1.0, "zeta": 1.0}
_SWEEP_DEFAULTS = {"c": 4.0, "delta_c": 0.0, "delta_a": 0.0, "kappa_ratio": 0.916, "zeta": 0.92}


def _merged_gate_config(args, defaults: dict) -> dict:
    """Flag values over file values over the command's defaults."""
    allowed = set(_GATE_PARAM_KEYS) | set(_GATE_EXTRA_KEYS)
    merged = {
        "phi": 0.0,
        "v_attenuation": 1.0,
        "alpha_p": None,
        "beta_p": None,
        "alpha": None,
        "beta": None,
    }
    merged.update(defaults)
    if args.config is not None:
        cfg = _load_config(args.config)
        unknown = sorted(set(cfg) - allowed)
        if unknown:
            raise ValueError(f"config {args.config}: unknown keys {unknown}")
        merged.update(cfg)
    for key in allowed:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


def _normalized_pair(a, b, what: str) -> tuple[complex, complex]:
    """Fill in an equal superposition where unspecified, else normalize."""
    if a is None and b is None:
        s = math.sqrt(0.5)
        return complex(s), complex(s)
    za = _parse_complex(a) if a is not None else 0j
    zb = _parse_complex(b) if b is not None else 0j
    norm = math.hypot(abs(za), abs(zb))
    if norm < 1e-300:
        raise ValueError(f"{what} amplitudes cannot both vanish")
    return za / norm, zb / norm


def _state_from_config(cfg: dict) -> JointState:
    ap, bp = _normalized_pair(cfg["alpha_p"], cfg["beta_p"], "photon")
    aa, ba = _normalized_pair(cfg["alpha"], cfg["beta"], "atom")
    return JointState(ap, bp, aa, ba)


def _params_from_config(cfg: dict) -> CavityParams:
    return CavityParams(**{key: float(cfg[key]) for key in _GATE_PARAM_KEYS})


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


def _write_artifact(out, name: str, payload: dict) -> None:
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    with open(path, "w", newline="") as fh:
        write_json(payload, fh)
    print(f"wrote {path}")


def _emit_result(result, args, stem: str) -> None:
    """Write CSV/JSON artifacts for one SweepResult."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    formats = ("csv", "json") if args.format is None else (args.format,)
    for fmt in formats:
        path = out_dir / f"{stem}.{fmt}"
        if fmt == "csv":
            result.to_csv(path)
        else:
            result.to_json(path)
        print(f"wrote {path}")


def cmd_gate(args) -> int:
    cfg = _merged_gate_config(args, _GATE_DEFAULTS)
    params = _params_from_config(cfg)
    state = _state_from_config(cfg)
    phi = float(cfg["phi"])
    att = float(cfg["v_attenuation"])
    for name, value in (("phi", phi), ("v_attenuation", att)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")

    if args.scheme == "new":
        res = cz_new(params, state, phi=phi, v_attenuation=att)
    else:
        res = cz_old(params, state)
    if res.no_herald:
        print("error: gate heralds nothing at this operating point", file=sys.stderr)
        return EXIT_NO_HERALD

    payload = {
        "scheme": args.scheme,
        "params": {k: cfg[k] for k in _GATE_PARAM_KEYS},
        "phi": phi,
        "v_attenuation": att,
        "state": {
            "alpha_p": _fmt_complex(state.alpha_p),
            "beta_p": _fmt_complex(state.beta_p),
            "alpha": _fmt_complex(state.alpha),
            "beta": _fmt_complex(state.beta),
        },
        "result": _gate_result_dict(res),
    }
    if args.oracle:
        refl = reflection_lossy(params)
        if args.scheme == "new":
            net = run_cz_new(refl, params.zeta, state, phi=phi, v_attenuation=att)
        else:
            net = run_cz_old(refl, params.zeta, state)
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
        _write_artifact(args.out, "gate.json", payload)
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
    cfg = _merged_gate_config(args, _SWEEP_DEFAULTS)
    base = _params_from_config(cfg)
    lo, hi = _AXIS_RANGES[args.axis]
    lo = args.min if args.min is not None else lo
    hi = args.max if args.max is not None else hi
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"bad sweep range [{lo}, {hi}]")
    if not 2 <= args.points <= MAX_GRID_POINTS:
        raise ValueError(f"sweep needs 2 to {MAX_GRID_POINTS} points, got {args.points}")
    values = np.linspace(lo, hi, args.points)
    schemes = ("new", "old") if args.scheme == "both" else (args.scheme,)
    results = [sweep_1d(base, args.axis, values, scheme, args.quantity) for scheme in schemes]
    for scheme, result in zip(schemes, results):
        _emit_result(result, args, f"sweep_{args.axis}_{args.quantity}_{scheme}")
    return 0


def _spec_from_args(args) -> FluctuationSpec:
    flat = standard_fluctuation_spec().to_flat_dict()
    if args.spec is not None:
        overrides = _load_config(args.spec)
        unknown = sorted(set(overrides) - set(flat))
        if unknown:
            raise ValueError(f"spec {args.spec}: unknown keys {unknown}")
        flat.update(overrides)
    spec = FluctuationSpec.from_flat_dict(flat)
    if args.trials is not None:
        spec = replace(spec, trials=args.trials)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    if args.window is not None:
        spec = replace(spec, window=args.window)
    if args.sigma_phi is not None:
        phi = GaussianSpec(0.0, args.sigma_phi)
        spec = replace(spec, phi1=phi, phi2=phi)
    return spec


def cmd_mc(args) -> int:
    spec = _spec_from_args(args)
    if not (math.isfinite(args.cmin) and math.isfinite(args.cmax) and 0.0 < args.cmin < args.cmax):
        raise ValueError(f"bad cooperativity range [{args.cmin}, {args.cmax}]")
    if not 1 <= args.points <= MAX_GRID_POINTS:
        raise ValueError(f"mc needs 1 to {MAX_GRID_POINTS} grid points, got {args.points}")
    grid = np.linspace(args.cmin, args.cmax, args.points)
    result = mc_infidelity_curve(spec, args.scheme, grid)
    for curve in result if args.scheme == "both" else (result,):
        _emit_result(curve, args, f"mc_{curve.metadata['scheme']}")
    return 0


def cmd_validate(args) -> int:
    reports = validate_mod.run_all()
    for report in reports:
        for line in report.lines():
            print(line)
    ok = all(r.passed for r in reports)
    if args.out is not None:
        payload = {"passed": ok, "reports": [r.to_dict() for r in reports]}
        _write_artifact(args.out, "validation.json", payload)
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
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
