"""Cavity-mediated atom-photon gate simulator.

Closed-form fidelity and success probability for two reflection-based
CZ gate schemes under realistic errors (mode mismatch, mirror loss,
detunings, finite cooperativity, interferometer phase noise), a
brute-force optical network oracle to check them against, Bloch-sphere
averages, fluctuation Monte Carlo, and experiment reproductions.

The public names below are imported from their modules on first use
(PEP 562), so `import cavsim` loads no submodule and no numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "analytic": (
        "GateResult",
        "JointState",
        "NoHeraldError",
        "avg_fidelity_new",
        "avg_fidelity_old",
        "avg_success",
        "cz_new",
        "cz_new_from_reflections",
        "cz_old",
        "cz_old_from_reflections",
    ),
    "cavity": (
        "CavityParams",
        "ReflectionPair",
        "reflection_amplitudes",
        "reflection_lossless",
        "reflection_lossy",
    ),
    "entangle": (
        "OldEntangleResult",
        "TwoAtomEstimate",
        "TwoCavitySetup",
        "atom_atom_new",
        "atom_atom_old",
        "two_atoms_one_cavity",
        "two_atoms_one_cavity_from_reflections",
    ),
    "montecarlo": (
        "FluctuationSpec",
        "SweepResult",
        "standard_fluctuation_spec",
        "mc_infidelity_curve",
        "sweep_1d",
    ),
    "oracle": (
        "NetworkState",
        "RemoteEntangleResult",
        "run_cz_new",
        "run_cz_old",
        "run_remote_new",
    ),
    "validate": (
        "CheckResult",
        "ValidationReport",
        "balance_report",
        "experiment_1",
        "experiment_2",
        "loss_balance",
        "multiphoton_throughput",
        "run_all",
        "throughput_report",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
