"""Byte-for-byte pins of the CLI's JSON and CSV artifacts.

The reference files under tests/golden/ were written by the commands
below. They pin the artifact writer (12 significant digits, sorted keys,
indent 2, trailing LF) and the seeded Monte Carlo streams; regenerate
them only for a deliberate change of the output format. A pinned value
may also be regenerated by a change that moves it on purpose and records
the old and new value in CHANGES.md.
"""

import json
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


# Config-file inputs of the three commands: integers, numeric strings and
# a null where each is valid, some keys overridden by a flag. The mc spec
# leaves the phase means at their defaults.
GATE_CONFIG = {"c": 3, "delta_c": "0.12", "delta_a": 0.0996, "kappa_ratio": 0.92, "zeta": 0.5,
               "phi": 0.1, "v_attenuation": 0.9, "alpha_p": "0.6", "beta_p": "0.8j",
               "alpha": 1, "beta": None}
SWEEP_CONFIG = {"delta_c": 0.1, "delta_a": "-0.05", "kappa_ratio": 0.8, "zeta": 0.9}
MC_SPEC = {"cavity1_kappa_ratio_mean": 0.85, "cavity2_delta_c_sigma": 0.1, "phi1_sigma": 0.05,
           "trials": 1000, "seed": 3, "window": 7}


def _config_file(directory: Path, doc: dict) -> str:
    path = directory / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_gate_config_file_stdout_bytes(tmp_path, capsys):
    code = main(["gate", "--scheme", "new", "--config", _config_file(tmp_path, GATE_CONFIG),
                 "--zeta", "1", "--format", "json"])
    assert code == 0
    assert capsys.readouterr().out.encode() == _golden("gate_new_config_stdout.json")


@pytest.fixture(scope="module")
def config_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("config")
    code = main(["sweep", "--scheme", "both", "--axis", "c", "--points", "21",
                 "--config", _config_file(out, SWEEP_CONFIG), "--kr", "0.95", "--out", str(out)])
    assert code == 0
    code = main(["mc", "--scheme", "both", "--spec", _config_file(out, MC_SPEC),
                 "--trials", "400", "--seed", "9", "--window", "1", "--sigma-phi", "0.2",
                 "--points", "5", "--out", str(out)])
    assert code == 0
    return out


@pytest.mark.parametrize(
    "name, golden",
    [(f"{cmd}_{scheme}.{fmt}", f"{cmd}_{scheme}_config.{fmt}")
     for cmd in ("sweep_c_fidelity", "mc") for scheme in ("new", "old") for fmt in ("csv", "json")],
)
def test_config_file_artifact_bytes(config_out, name, golden):
    assert (config_out / name).read_bytes() == _golden(golden)
