"""Cavity-mediated atom-photon gate simulator.

Closed-form fidelity and success probability for two reflection-based
CZ gate schemes under realistic errors (mode mismatch, mirror loss,
detunings, finite cooperativity, interferometer phase noise), a
brute-force optical network oracle to check them against, Bloch-sphere
averages, fluctuation Monte Carlo, and experiment reproductions.
"""

from .analytic import (
    GateResult,
    JointState,
    NoHeraldError,
    avg_fidelity_new,
    avg_fidelity_old,
    avg_success,
    cz_new,
    cz_new_from_reflections,
    cz_old,
    cz_old_from_reflections,
)
from .cavity import (
    CavityParams,
    ReflectionPair,
    reflection_amplitudes,
    reflection_lossless,
    reflection_lossy,
)
from .entangle import (
    OldEntangleResult,
    TwoAtomEstimate,
    TwoCavitySetup,
    atom_atom_new,
    atom_atom_old,
    two_atoms_one_cavity,
    two_atoms_one_cavity_from_reflections,
)
from .montecarlo import (
    FluctuationSpec,
    SweepResult,
    default_c_grid,
    standard_fluctuation_spec,
    mc_infidelity_curve,
    sweep_1d,
)
from .oracle import (
    NetworkState,
    RemoteEntangleResult,
    run_cz_new,
    run_cz_old,
    run_remote_new,
)
from .validate import (
    CheckResult,
    ValidationReport,
    balance_report,
    experiment_1,
    experiment_2,
    loss_balance,
    multiphoton_throughput,
    run_all,
    throughput_report,
)

__version__ = "0.1.0"

__all__ = [
    "CavityParams",
    "CheckResult",
    "FluctuationSpec",
    "GateResult",
    "JointState",
    "NetworkState",
    "NoHeraldError",
    "OldEntangleResult",
    "ReflectionPair",
    "RemoteEntangleResult",
    "SweepResult",
    "TwoAtomEstimate",
    "TwoCavitySetup",
    "ValidationReport",
    "atom_atom_new",
    "atom_atom_old",
    "avg_fidelity_new",
    "avg_fidelity_old",
    "avg_success",
    "balance_report",
    "cz_new",
    "cz_new_from_reflections",
    "cz_old",
    "cz_old_from_reflections",
    "default_c_grid",
    "experiment_1",
    "experiment_2",
    "standard_fluctuation_spec",
    "loss_balance",
    "mc_infidelity_curve",
    "multiphoton_throughput",
    "reflection_amplitudes",
    "reflection_lossless",
    "reflection_lossy",
    "run_all",
    "run_cz_new",
    "run_cz_old",
    "run_remote_new",
    "sweep_1d",
    "two_atoms_one_cavity",
    "two_atoms_one_cavity_from_reflections",
    "__version__",
]
