"""The Monte Carlo's means held to references it shares no code with.

With every sigma 0 each trial is the closed form of `entangle`. With one
parameter of one node drawn, the expected infidelity is a 1-d Gaussian
integral, which a 120-node Gauss-Hermite rule evaluates from the same
closed forms, with the Monte Carlo's clamps. Neither reference reads the
Monte Carlo's draws, its array kernels or its statistics.
"""

import math
from dataclasses import fields, replace

import pytest
from numpy.polynomial.hermite_e import hermegauss

from cavsim import (
    CavityParams,
    FluctuationSpec,
    TwoCavitySetup,
    atom_atom_new,
    atom_atom_old,
    mc_infidelity_curve,
)

_NO_SIGMA = {f.name: 0.0 for f in fields(FluctuationSpec) if f.name.endswith("_sigma")}


def _infidelity(scheme: str, node_1: CavityParams, node_2: CavityParams, phi_2: float = 0.0):
    """1 - F of the closed form: the new scheme's one Bell fidelity, or the
    old scheme's branch fidelities weighted by their herald probabilities."""
    setup = TwoCavitySetup(node_1, node_2, phi_2=phi_2)
    if scheme == "new":
        return 1.0 - atom_atom_new(setup)
    res = atom_atom_old(setup)
    return 1.0 - (res.phi_plus_weight * res.phi_plus_fidelity
                  + res.psi_plus_weight * res.psi_plus_fidelity)


def test_zero_sigma_means_are_the_closed_forms():
    # three identical trials, as in test_montecarlo's _fixed_spec: the mean
    # of more of them also carries the rounding of numpy's sum (1.8e-16 at
    # C = 1 with 4000 trials)
    grid = [1.0, 2.5, 4.0, 9.0]
    spec = FluctuationSpec(**_NO_SIGMA, cavity1_kappa_ratio_mean=0.9,
                           cavity2_kappa_ratio_mean=0.9, trials=3, window=1)
    new, old = mc_infidelity_curve(spec, "both", grid)
    for c, mean_new, mean_old in zip(grid, new.means, old.means):
        node = CavityParams(c=c, kappa_ratio=0.9)
        assert mean_new == _infidelity("new", node, node), c
        assert abs(mean_old - _infidelity("old", node, node)) <= 1.2e-16, c


C = 3.0
SEEDS = range(20)
TRIALS = 4000


def _nodes_at(name: str, x: float, kappa_ratio: float):
    """(node_1, node_2, phi_2) where the drawn parameter `name` is x,
    clamped as the Monte Carlo clamps it, and every other parameter is at
    its mean."""
    node = CavityParams(c=C, kappa_ratio=kappa_ratio)
    if name == "phi2":
        return node, node, x
    key = name.removeprefix("cavity1_")
    if key == "kappa_ratio":
        x = min(max(x, 0.0), 1.0)
    return replace(node, **{key: x}), node, 0.0


@pytest.mark.parametrize("name, mean, sigma, kappa_ratio, schemes", [
    ("cavity1_delta_c", 0.0, 0.3, 0.9, ("new", "old")),
    # a quarter of the draws lie above 1 and are clamped there
    ("cavity1_kappa_ratio", 0.98, 0.03, 0.98, ("new", "old")),
    ("phi2", 0.0, 0.4, 0.9, ("new",)),
    ("cavity1_delta_a", 0.0, 0.5, 0.9, ("new", "old")),
], ids=["delta_c", "kappa_ratio", "phi2", "delta_a"])
def test_one_drawn_parameter_matches_gauss_hermite(name, mean, sigma, kappa_ratio, schemes):
    means = {"cavity1_kappa_ratio_mean": kappa_ratio, "cavity2_kappa_ratio_mean": kappa_ratio,
             f"{name}_mean": mean, f"{name}_sigma": sigma}
    runs = [
        mc_infidelity_curve(FluctuationSpec(**{**_NO_SIGMA, **means}, trials=TRIALS, seed=seed,
                                            window=1), "both", [C])
        for seed in SEEDS
    ]
    nodes, weights = hermegauss(120)
    for k, scheme in enumerate(("new", "old")):
        if scheme not in schemes:
            continue
        reference = sum(
            w * _infidelity(scheme, *_nodes_at(name, mean + sigma * x, kappa_ratio))
            for x, w in zip(nodes, weights)
        ) / math.sqrt(2.0 * math.pi)
        z = [(run[k].means[0] - reference) / run[k].stderrs[0] for run in runs]
        assert abs(sum(z) / len(z)) <= 4.0 / math.sqrt(len(z)), (scheme, z)
        assert max(abs(x) for x in z) <= 5.0, (scheme, z)
        assert all(run[k].metadata["skipped_no_herald"] == 0 for run in runs)
    clamped = sum(run[0].metadata["clamped_kappa_ratio"] for run in runs)
    assert (clamped > 0) == (name == "cavity1_kappa_ratio")
