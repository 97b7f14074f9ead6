"""What each entry point loads. `import cavsim`, `import cavsim.cli` and
a sweep load neither numpy nor the modules that only the oracle, the
validation report or the Monte Carlo use; only the Monte Carlo loads
numpy. The checks run in a fresh interpreter, because this one has
loaded numpy already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cavsim

SRC = Path(cavsim.__file__).resolve().parents[1]

_PROBE = """
import json, sys
OPTIONAL = ("numpy", "concurrent.futures", "cavsim.oracle", "cavsim.validate", "cavsim.entangle")
before = set(sys.modules)

def loaded():
    return [m for m in OPTIONAL if m in sys.modules and m not in before]

import cavsim.cli
seen = {"import": loaded()}
for name, argv in json.loads(sys.argv[1]).items():
    assert cavsim.cli.main(argv) == 0, name
    seen[name] = loaded()
print(json.dumps(seen))
"""


def _loaded_after(tmp_path, commands: dict) -> dict:
    """The optional modules loaded after `import cavsim.cli` and after
    each command of `commands`, run in order in one fresh interpreter."""
    env = dict(os.environ, CAVSIM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(commands)],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_and_sweep_load_no_numpy_oracle_or_validate(tmp_path):
    seen = _loaded_after(
        tmp_path,
        {"sweep": ["sweep", "--scheme", "both", "--axis", "zeta", "--points", "5", "--out", "."]},
    )
    assert seen == {"import": [], "sweep": []}


def test_gate_loads_the_oracle_only_under_oracle_flag(tmp_path):
    gate = ["gate", "--scheme", "new", "--c", "4"]
    seen = _loaded_after(tmp_path, {"gate": gate, "gate --oracle": gate + ["--oracle"]})
    assert seen["gate"] == []
    assert "cavsim.oracle" in seen["gate --oracle"]
    assert "numpy" not in seen["gate --oracle"]


def test_validate_loads_no_numpy(tmp_path):
    seen = _loaded_after(tmp_path, {"validate": ["validate", "--out", "."]})
    assert "cavsim.validate" in seen["validate"]
    assert "numpy" not in seen["validate"]


_CROSSCHECK = """
import sys
from cavsim import (
    CavityParams, JointState, TwoCavitySetup, atom_atom_new, atom_atom_old, cz_new, cz_old,
    reflection_lossy,
)
from cavsim.oracle import run_cz_new, run_cz_old, run_remote_new

p, q = CavityParams(c=3.0, delta_c=0.2, kappa_ratio=0.9, zeta=0.8), CavityParams(c=5.0)
state = JointState(0.6, 0.8j, 0.8, -0.6)
refl = reflection_lossy(p)
cz_new(p, state, phi=0.3)
cz_old(p, state)
run_cz_new(refl, p.zeta, state, phi=0.3)
run_cz_old(refl, p.zeta, state)
run_remote_new(reflection_lossy(q), reflection_lossy(q), 0.1, 0.2)
atom_atom_new(TwoCavitySetup(q, q, 0.1, 0.2))
atom_atom_old(TwoCavitySetup(q, q))
print("numpy" in sys.modules)
"""


def test_closed_forms_and_oracle_load_no_numpy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _CROSSCHECK],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
    )
    assert proc.stdout.split() == ["False"]


def test_single_thread_mc_loads_no_thread_pool(tmp_path):
    mc = ["mc", "--scheme", "both", "--points", "3", "--trials", "20", "--window", "1"]
    seen = _loaded_after(tmp_path, {"mc": mc + ["--out", "."]})
    assert "concurrent.futures" not in seen["mc"]
    assert "numpy" in seen["mc"]


def test_every_public_name_resolves():
    for name in cavsim.__all__:
        assert getattr(cavsim, name) is not None, name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError):
        cavsim.no_such_name
