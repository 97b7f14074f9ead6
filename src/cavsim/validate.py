"""Cross-checks against published cavity-gate experiments.

Each report entry carries the computed number, the reference it is
held against, a tolerance, and a pass/fail flag. run_all() is the
one-call gate used by CI.

Reference anchors:
  * a single-atom gate run at (zeta=0.92, C=3, delta_c=0.12,
    delta_a=0.0996, kappa_ratio=0.92) with measured Bell fidelity
    0.807 after a further ~10% of errors outside this model,
  * a two-atoms-in-one-cavity run at (C=4, resonance,
    kappa_ratio=0.916) quoting 99.96% fidelity for detected photons
    and 32.3% photon loss at zeta=0.92. The quoted fidelity counts the
    mismatched light as loss rather than infidelity (a detected photon
    came from the matched mode), so the fidelity entry here is
    evaluated at zeta=1 while the loss entry uses zeta=0.92 and the
    mismatch-only entry uses ideal mirrors with zeta=0.92.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

from .analytic import GateResult, JointState, avg_success, cz_new, cz_old
from .cavity import BASELINE_PARAMS, CavityParams, ReflectionPair, reflection_lossy
from .entangle import two_atoms_one_cavity, two_atoms_one_cavity_from_reflections
from .oracle import run_cz_new

__all__ = [
    "CheckResult",
    "ValidationReport",
    "EXPERIMENT_1_PARAMS",
    "BASELINE_PARAMS",
    "BALANCE_PARAMS",
    "experiment_1",
    "experiment_2",
    "loss_balance",
    "balance_report",
    "multiphoton_throughput",
    "throughput_report",
    "run_all",
]

# single-photon source and detection efficiency of the throughput estimate
THROUGHPUT_NBAR = 0.13
THROUGHPUT_ETA = 0.55

EXPERIMENT_1_PARAMS = CavityParams(
    c=3.0, delta_c=0.12, delta_a=0.83 * 0.12, kappa_ratio=0.92, zeta=0.92
)
EXPERIMENT_2_PARAMS = CavityParams(c=4.0, kappa_ratio=0.916, zeta=0.92)
# operating point of the arm-balancing demonstration (no mismatch)
BALANCE_PARAMS = CavityParams(c=4.0, kappa_ratio=0.916, zeta=1.0)

_MODES = ("within", "at_least")


@dataclass(frozen=True)
class CheckResult:
    """One computed number held against a reference.

    mode "within": passes when |value - reference| <= tolerance.
    mode "at_least": passes when value >= reference - tolerance.
    """

    name: str
    value: float
    reference: float
    tolerance: float
    mode: str = "within"

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.tolerance < 0.0:
            raise ValueError("tolerance must be >= 0")

    @property
    def passed(self) -> bool:
        if self.mode == "at_least":
            return self.value >= self.reference - self.tolerance
        return abs(self.value - self.reference) <= self.tolerance

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        rel = ">=" if self.mode == "at_least" else "=="
        return (
            f"{verdict} {self.name}: {self.value:.6g} "
            f"({rel} {self.reference:.6g} tol {self.tolerance:.2g})"
        )


@dataclass(frozen=True)
class ValidationReport:
    title: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self):
        out = [f"[{self.title}]"]
        out.extend(c.line() for c in self.checks)
        return out

    def to_dict(self) -> dict:
        """The report's fields, each check's fields, and each verdict."""
        checks = [{**asdict(c), "passed": c.passed} for c in self.checks]
        return {**asdict(self), "passed": self.passed, "checks": checks}


def experiment_1() -> ValidationReport:
    """Single-atom gate reproduction.

    The measured 0.807 Bell fidelity sits below the model value by a
    documented ~10% of errors this model does not cover (state
    preparation, readout, ...), so the last entry subtracts that flat
    budget before comparing.
    """
    res = cz_old(EXPERIMENT_1_PARAMS, JointState.equal_superposition())
    checks = (
        CheckResult("gate fidelity", res.fidelity, 0.90, 0.01),
        CheckResult("success probability", res.success_probability, 0.69, 0.01),
        CheckResult(
            "fidelity minus non-gate error budget", res.fidelity - 0.10, 0.807, 0.01
        ),
    )
    return ValidationReport("single-atom gate reproduction", checks)


def experiment_2() -> ValidationReport:
    res_detected = two_atoms_one_cavity(replace(EXPERIMENT_2_PARAMS, zeta=1.0))
    res_full = two_atoms_one_cavity(EXPERIMENT_2_PARAMS)
    mismatch_only = two_atoms_one_cavity_from_reflections(
        ReflectionPair.ideal(), EXPERIMENT_2_PARAMS.zeta
    )
    checks = (
        CheckResult(
            "detected-photon fidelity", res_detected.fidelity, 0.9996, 5e-4
        ),
        CheckResult("photon loss probability", res_full.p_loss, 0.323, 5e-3),
        CheckResult(
            "mismatch-only fidelity", mismatch_only.fidelity, 0.94, 1e-12
        ),
    )
    return ValidationReport("two-atoms-in-one-cavity reproduction", checks)


def loss_balance(p: CavityParams, state: JointState) -> tuple[float, GateResult]:
    """Attenuation for the noninteracting arm, and the re-run gate.

    The interacting arm transmits with amplitude sqrt(zeta)|r_c-r_nc|/2
    on average while the bypass arm transmits everything; scaling the
    bypass amplitude down to match equalizes the two heralded branch
    weights for an equal-superposition photon and removes the loss
    imbalance for every input state.
    """
    refl = reflection_lossy(p)
    contrast = 0.5 * abs(refl.r_c - refl.r_nc)
    if contrast <= 1e-12:
        raise ValueError(
            "both atomic states reflect identically; the interacting arm "
            "carries no signal and cannot be balanced against"
        )
    att = math.sqrt(p.zeta) * contrast
    return att, cz_new(p, state, v_attenuation=att)


def balance_report() -> ValidationReport:
    """Heralded branch amplitudes before and after arm balancing.

    The reference amplitudes are quoted against unnormalized
    (|0> +/- |1>) atomic kets, i.e. the heralded branch moduli divided
    by sqrt(2). Both the closed form and the network simulation must
    reproduce them.
    """
    state = JointState.equal_superposition()
    p = BALANCE_PARAMS
    plain = cz_new(p, state)
    refl = reflection_lossy(p)
    net = run_cz_new(refl, p.zeta, state)
    att, balanced = loss_balance(p, state)
    net_bal = run_cz_new(refl, p.zeta, state, v_attenuation=att)
    s = math.sqrt(0.5)
    checks = (
        CheckResult("bypass-arm amplitude", plain.v_amplitude * s, 0.548333, 1e-5),
        CheckResult("cavity-arm amplitude", plain.h_amplitude * s, 0.446465, 1e-5),
        CheckResult(
            "bypass-arm amplitude (network)", net.v_amplitude * s, 0.548333, 1e-5
        ),
        CheckResult(
            "cavity-arm amplitude (network)", net.h_amplitude * s, 0.446465, 1e-5
        ),
        CheckResult(
            "balanced branch weight split",
            balanced.v_amplitude**2 - balanced.h_amplitude**2,
            0.0,
            1e-12,
        ),
        CheckResult(
            "balanced fidelity gain",
            balanced.fidelity,
            plain.fidelity,
            0.0,
            mode="at_least",
        ),
        CheckResult(
            "network agreement of balanced fidelity",
            net_bal.fidelity,
            balanced.fidelity,
            1e-10,
        ),
    )
    return ValidationReport("arm-balancing demonstration", checks)


def multiphoton_throughput(nbar: float, eta: float, p_success: float) -> float:
    """Click rate with a Poissonian source: the single-photon weight
    nbar*exp(-nbar) times detection efficiency times gate success."""
    if not (math.isfinite(nbar) and nbar >= 0.0):
        raise ValueError("nbar must be finite and >= 0")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    if not 0.0 <= p_success <= 1.0:
        raise ValueError("p_success must lie in [0, 1]")
    return nbar * math.exp(-nbar) * eta * p_success


def throughput_report() -> ValidationReport:
    p_old = avg_success(BASELINE_PARAMS, "old")
    p_new = avg_success(BASELINE_PARAMS, "new")
    checks = (
        CheckResult("average success probability (prior scheme)", p_old, 0.70, 0.02),
        CheckResult("average success probability (present scheme)", p_new, 0.80, 0.02),
        CheckResult(
            "throughput (prior scheme)",
            multiphoton_throughput(THROUGHPUT_NBAR, THROUGHPUT_ETA, p_old),
            0.044,
            0.002,
        ),
        CheckResult(
            "throughput (present scheme)",
            multiphoton_throughput(THROUGHPUT_NBAR, THROUGHPUT_ETA, p_new),
            0.050,
            0.002,
        ),
    )
    return ValidationReport("multiphoton throughput", checks)


def run_all() -> list[ValidationReport]:
    return [experiment_1(), experiment_2(), balance_report(), throughput_report()]
