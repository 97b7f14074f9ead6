"""The CLI's exit-code contract under extreme input, as a property test.

Every command runs in process at tiny sizes. Whatever the input, the
exit code is 0, 1, 2 or 3 and nothing but argparse's SystemExit(2)
escapes (warnings are errors in this suite); every JSON artifact loads
with NaN and Infinity refused; fidelities, probabilities and mc
infidelities lie in [0, 1]; and an exit 3 writes no file.
"""

import contextlib
import csv
import io
import json
import os
import tempfile
from dataclasses import astuple, fields
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavsim import CavityParams, FluctuationSpec
from cavsim.cli import main

from conftest import (
    bloch_pairs, edge_cavity_params, edge_phases, extreme_amplitudes, extreme_floats, unit_or_edge,
)

OUT = "{out}"  # stands for the run's output directory
AMPLITUDE_FLAGS = ("--alpha-p", "--beta-p", "--alpha", "--beta")
UNIT_KEYS = ("fidelity", "success_probability", "p_loss", "p_h_reject",
             "v_amplitude", "h_amplitude")


@st.composite
def _flags(draw, valid: dict):
    """["FLAG=VALUE", ...]: each flag absent or at its valid value (None:
    absent), except up to two flags that get an extreme value. The =
    keeps a negative value from reading as a flag."""
    extreme = draw(st.sets(st.sampled_from(sorted(valid)), max_size=2))
    argv = []
    for flag, value in valid.items():
        if flag in extreme:
            value = draw(extreme_amplitudes() if flag in AMPLITUDE_FLAGS
                         else extreme_floats().map(repr))
        elif value is None or draw(st.booleans()):
            continue
        argv.append(f"{flag}={value}")
    return argv


def _cavity(p: CavityParams) -> dict:
    return dict(zip(("--c", "--dc", "--da", "--kr", "--zeta"), map(repr, astuple(p))))


@st.composite
def gate_argv(draw):
    scheme = draw(st.sampled_from(["new", "old"]))
    valid = _cavity(draw(edge_cavity_params()))
    if scheme == "new":
        valid["--phi"] = repr(draw(edge_phases()))
        valid["--v-attenuation"] = repr(draw(unit_or_edge()))
    photon, atom = draw(bloch_pairs()), draw(bloch_pairs())
    valid.update(zip(AMPLITUDE_FLAGS, map(repr, photon + atom)))
    argv = ["gate", "--scheme", scheme, *draw(_flags(valid))]
    if draw(st.booleans()):
        argv.append("--oracle")
    return argv + draw(st.sampled_from([[], ["--format", "json"], ["--out", OUT]]))


@st.composite
def sweep_argv(draw):
    valid = {**_cavity(draw(edge_cavity_params())), "--min": None, "--max": None}
    return ["sweep", "--scheme", draw(st.sampled_from(["new", "old", "both"])),
            "--axis", draw(st.sampled_from(["zeta", "kappa_ratio", "delta_c", "c"])),
            "--quantity", draw(st.sampled_from(["fidelity", "success"])),
            "--points", str(draw(st.integers(2, 3))), *draw(_flags(valid)),
            *draw(st.sampled_from([[], ["--format", "csv"], ["--format", "json"]]))]


_SPEC_FLOATS = [f.name for f in fields(FluctuationSpec) if f.type == "float"]


@st.composite
def mc_argv(draw):
    valid = {"--cmin": None, "--cmax": None, "--sigma-phi": repr(draw(unit_or_edge()))}
    argv = ["mc", "--scheme", draw(st.sampled_from(["new", "old", "both"])),
            "--points", str(draw(st.integers(1, 3))), "--trials", str(draw(st.integers(1, 50))),
            "--window", str(draw(st.integers(1, 3))), *draw(_flags(valid))]
    spec = draw(st.dictionaries(st.sampled_from(_SPEC_FLOATS), extreme_floats(), max_size=2))
    if spec:
        argv += ["--spec", json.dumps(spec)]  # written to a file by the test
    return argv + draw(st.sampled_from([[], ["--format", "csv"], ["--format", "json"]]))


def _refuse_constant(name):
    raise ValueError(f"JSON artifact holds {name}")


def _check_unit(values, where):
    for value in values:
        assert value is None or 0.0 <= value <= 1.0, (where, value)


def _check_json(text, where):
    doc = json.loads(text, parse_constant=_refuse_constant)
    for key in ("result", "oracle"):
        if key in doc:
            _check_unit((doc[key].get(k) for k in UNIT_KEYS), where)
    for _, mean, stderr in doc.get("rows", ()):
        _check_unit([mean], where)
        assert stderr >= 0.0, (where, stderr)


def _check_csv(text, where):
    for row in csv.DictReader(io.StringIO(text)):
        _check_unit([float(row["mean"])], where)
        assert float(row["stderr"]) >= 0.0, (where, row)


def _run(argv, out: Path):
    """(exit code, stdout, stderr) of cavsim with argv, OUT replaced by out."""
    argv = [str(out) if a == OUT else a for a in argv]
    if "--spec" in argv:
        spec = out.parent / "spec.json"
        spec.write_text(argv[argv.index("--spec") + 1])
        argv[argv.index("--spec") + 1] = str(spec)
    if argv[0] != "gate":
        argv += ["--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"CAVSIM_THREADS": "1"}), \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error, and nothing else
            assert exc.code == 2 and "usage:" in stderr.getvalue(), exc
            code = 2
    return code, stdout.getvalue(), stderr.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=st.one_of(gate_argv(), sweep_argv(), mc_argv(), st.just(["validate"])))
@example(argv=["gate", "--scheme", "new", "--beta-p=1.7e308+1.7e308j", "--oracle"])
@example(argv=["gate", "--scheme", "old", "--alpha=1.7e308+1.7e308j", "--oracle"])
def test_cli_exit_codes_and_artifacts(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code, stdout, stderr = _run(argv, out)
        assert code in (0, 1, 2, 3), (argv, code)
        assert "Traceback" not in stderr
        files = sorted(out.rglob("*.*")) if out.exists() else []
        if code == 3:
            assert files == [], argv
        for path in files:
            check = _check_json if path.suffix == ".json" else _check_csv
            check(path.read_text(), path.name)
        if code == 0 and argv[0] == "gate":
            if "--format" in argv:
                _check_json(stdout, "stdout")
            elif "--out" not in argv:
                lines = dict(line.split(" ", 1) for line in stdout.splitlines())
                _check_unit((float(lines[k]) for k in UNIT_KEYS if k in lines), "stdout")


def test_extreme_amplitude_pairs_are_renormalized(capsys):
    # abs() of the unscaled amplitude overflowed with an uncaught
    # OverflowError and exit 1
    for scheme, flag in (("new", "--beta-p"), ("old", "--alpha")):
        argv = ["gate", "--scheme", scheme, f"{flag}=1.7e308+1.7e308j", "--format", "json"]
        assert main(argv) == 0
        state = json.loads(capsys.readouterr().out)["state"]
        assert state[flag.lstrip("-").replace("-", "_")] == "0.707106781187+0.707106781187j"
    # the smallest subnormal is scaled up exactly
    assert main(["gate", "--scheme", "new", "--alpha-p", "5e-324", "--beta-p", "0",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["state"]["alpha_p"] == "1+0j"


def test_non_finite_or_vanishing_pairs_exit_2(capsys):
    for flags, message in (
        (["--beta-p", "nan"], "beta_p must be a finite amplitude, got 'nan'"),
        (["--alpha", "1e309j"], "alpha must be a finite amplitude, got '1e309j'"),
        (["--alpha-p", "0", "--beta-p=-0j"], "alpha_p and beta_p cannot both vanish"),
    ):
        assert main(["gate", "--scheme", "new", *flags]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
