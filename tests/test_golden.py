"""Byte-for-byte pins of the CLI's JSON and CSV artifacts.

The reference files under tests/golden/ were written by the commands
below. They pin the artifact writer (12 significant digits, sorted keys,
indent 2, trailing LF) and the seeded Monte Carlo streams; regenerate
them only for a deliberate change of the output format.
"""

from pathlib import Path

import pytest

from cavsim.cli import main

GOLDEN = Path(__file__).parent / "golden"


def _golden(name: str) -> bytes:
    return (GOLDEN / name).read_bytes()


def test_gate_json_file_bytes(tmp_path, capsys):
    code = main(
        ["gate", "--scheme", "old", "--c", "3", "--dc", "0.12", "--da", "0.0996",
         "--kr", "0.92", "--zeta", "0.92", "--oracle", "--out", str(tmp_path)]
    )
    assert code == 0
    capsys.readouterr()
    assert (tmp_path / "gate.json").read_bytes() == _golden("gate_old_oracle.json")


def test_gate_json_stdout_bytes(capsys):
    code = main(
        "gate --scheme new --c 4 --kr 0.916 --zeta 0.92 --oracle --format json".split()
    )
    assert code == 0
    assert capsys.readouterr().out.encode() == _golden("gate_new_oracle_stdout.json")


def test_validation_json_bytes(tmp_path, capsys):
    assert main(["validate", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "validation.json").read_bytes() == _golden("validation.json")


@pytest.fixture(scope="module")
def mc_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("mc")
    code = main(["mc", "--scheme", "both", "--points", "20", "--trials", "500",
                 "--out", str(out)])
    assert code == 0
    return out


@pytest.mark.parametrize("name", ["mc_new.csv", "mc_new.json", "mc_old.csv", "mc_old.json"])
def test_mc_artifact_bytes(mc_out, name):
    assert (mc_out / name).read_bytes() == _golden(name)


SWEEP_AXES = ("zeta", "kappa_ratio", "delta_c", "c")


@pytest.fixture(scope="module")
def sweep_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    for axis in SWEEP_AXES:
        code = main(["sweep", "--scheme", "both", "--axis", axis, "--points", "101",
                     "--quantity", "fidelity", "--out", str(out)])
        assert code == 0
    return out


@pytest.mark.parametrize(
    "name",
    [f"sweep_{axis}_fidelity_{scheme}.{fmt}"
     for axis in SWEEP_AXES for scheme in ("new", "old") for fmt in ("csv", "json")],
)
def test_sweep_artifact_bytes(sweep_out, name):
    assert (sweep_out / name).read_bytes() == _golden(name)
