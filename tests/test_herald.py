"""The one herald rule, analytic._heralds: an outcome heralds unless its
herald probability is below HERALD_TOL.

Every site that applies the rule is driven to a computed probability one
ulp below, at and one ulp above 1e-12, bit for bit, and an AST check
keeps every comparison with HERALD_TOL inside _heralds.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from cavsim import analytic, entangle, montecarlo, oracle
from cavsim.analytic import (
    JointState,
    NoHeraldError,
    cz_new_from_reflections,
    cz_old_from_reflections,
)
from cavsim.cavity import CavityParams, ReflectionPair
from cavsim.entangle import (
    TwoCavitySetup,
    _bell_new_core,
    atom_atom_new,
    atom_atom_old,
    two_atoms_one_cavity_from_reflections,
)
from cavsim.montecarlo import FluctuationSpec, mc_infidelity_curve
from conftest import herald_spy

# The threshold is written out, not read from HERALD_TOL, so that a moved
# threshold fails these cases rather than moving them along.
TOL = 1e-12
SIDES = {"below": math.nextafter(TOL, 0.0), "at": TOL, "above": math.nextafter(TOL, 1.0)}


def _solve(prob, lo: float, hi: float, target: float) -> float:
    """An x in [lo, hi] where prob(x) == target bit for bit, prob rising
    with x: bisection finds where prob first reaches the target, and
    math.nextafter steps around that point find an exact hit."""
    assert prob(lo) < target <= prob(hi)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (lo, mid) if prob(mid) >= target else (mid, hi)
    down = up = hi
    for _ in range(64):
        for x in (down, up):
            if prob(x) == target:
                return x
        down, up = math.nextafter(down, -math.inf), math.nextafter(up, math.inf)
    raise AssertionError(f"no input within 64 ulps of {hi!r} computes {target!r}")


def _pair(r_c, r_nc):
    return ReflectionPair.from_amplitudes(r_c, r_nc)


# cz_new with all light in the cavity arm: success = zeta |g|^2, g = 1.1e-6
def _cz_new(zeta):
    res = cz_new_from_reflections(_pair(1.1e-6, -1.1e-6), zeta, JointState(0, 1, 1, 0))
    return not res.no_herald


# At zeta = 1 the survival is att^2 |alpha_p|^2 + |beta_p|^2 |r_c|^2 / 2 with
# r_nc = 0, and the raw H probability |beta_p|^2 |r_c|^2 / 4 is not 0, so
# p_h_reject is 0 exactly where the survival does not herald.
REJECT_STATE = JointState(4e-7, math.sqrt(1.0 - 1.6e-13), 1.0, 0.0)
REJECT_PAIR = _pair(math.sqrt(1.8e-12), 0.0)


def _cz_new_reject(att):
    res = cz_new_from_reflections(REJECT_PAIR, 1.0, REJECT_STATE, v_attenuation=att)
    return res.p_h_reject != 0


def _run_cz_new_reject(att):
    return oracle.run_cz_new(REJECT_PAIR, 1.0, REJECT_STATE, v_attenuation=att).p_h_reject != 0


# cz_old at zeta = 1 and u = |beta_p|^2 |beta_a|^2 = 0.1: success =
# 0.9 |r_nc|^2 + 0.1 |r_c|^2
def _cz_old(r_c):
    state = JointState(math.sqrt(0.9), math.sqrt(0.1), 0.0, 1.0)
    return not cz_old_from_reflections(_pair(r_c, 1e-6), 1.0, state).no_herald


# the two-node forms read their nodes from this table (see the test)
NODES = {}
SETUP = TwoCavitySetup(CavityParams(c=1.0), CavityParams(c=2.0))


def _heralds_without_error(form) -> bool:
    try:
        form(SETUP)
    except NoHeraldError:
        return False
    return True


# p = (|g1|^2 + |g2|^2) / 2 with g1 = 1.3e-6 and g2 = y
def _atom_atom_new(y):
    NODES.update({1.0: _pair(1.3e-6, -1.3e-6), 2.0: _pair(y, -y)})
    return _heralds_without_error(atom_atom_new)


# Node 1 has no atom (r_c = r_nc), node 2 an r_c a little off its r_nc:
# phi+ heralds with p_phi ~ |r_nc1 r_nc2|^2 ~ 1e-12, psi+ with p_psi > 0
# some eight orders below it, so the result heralds with phi+ alone.
def _atom_atom_old(r_c2):
    NODES.update({1.0: _pair(1e-3, 1e-3), 2.0: _pair(r_c2, 0.9999e-3)})
    return _heralds_without_error(atom_atom_old)


# survived = (3 |r_c|^2 + |r_nc|^2) / 4 at zeta = 1
def _two_atoms(r_nc):
    try:
        two_atoms_one_cavity_from_reflections(_pair(math.sqrt(0.8e-12 / 0.75), r_nc), 1.0)
    except NoHeraldError:
        return False
    return True


# detection on "out" of two amplitudes, 0.9e-6 and b
def _herald(b):
    state = oracle.NetworkState({("H", "out", (), 0): 0.9e-6 + 0j, ("V", "out", (), 0): b + 0j})
    return oracle.herald(state, {"out"})[0] is not None


# name: (module that applies the rule, site, index of the site's call of
# _heralds that this case drives, knob range)
SITES = {
    "cz_new": (analytic, _cz_new, 1, 0.5, 1.0),
    "cz_new_p_h_reject": (analytic, _cz_new_reject, 0, 0.5, 1.0),
    "cz_old": (analytic, _cz_old, 0, 0.5e-6, 1.5e-6),
    "atom_atom_new": (entangle, _atom_atom_new, 0, 0.0, 1e-6),
    "atom_atom_old": (entangle, _atom_atom_old, 0, 0.9999e-3, 1.002e-3),
    "two_atoms_one_cavity": (entangle, _two_atoms, 0, 0.0, 1e-6),
    "oracle_herald": (oracle, _herald, 0, 0.0, 0.6e-6),
    "run_cz_new_p_h_reject": (oracle, _run_cz_new_reject, 0, 0.5, 1.0),
}


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("site", SITES)
def test_each_site_heralds_from_herald_tol_on(monkeypatch, site, side):
    module, run, call, lo, hi = SITES[site]
    monkeypatch.setattr(entangle, "reflection_lossy", lambda p: NODES[p.c])
    seen = herald_spy(monkeypatch, module)

    def prob(x):
        seen.clear()
        run(x)
        return seen[call]

    x = _solve(prob, lo, hi, SIDES[side])
    seen.clear()
    assert run(x) == (side != "below")
    assert seen[call] == SIDES[side]


@pytest.mark.parametrize("side", SIDES)
def test_mc_skips_exactly_the_trials_below_herald_tol(monkeypatch, side):
    # the even trials herald with p = (|g1|^2 + |g2|^2) / 2, g1 = 1.3e-6 and
    # g2 = y; the odd ones with p = 0.25. Cavity 1 is reflected first.
    trials = 10
    odd = np.arange(trials) % 2 == 1

    def pairs(y):
        g1, g2 = np.where(odd, 0.5, 1.3e-6), np.where(odd, 0.5, y)
        return [(g[None, :] + 0j, -g[None, :] + 0j) for g in (g1, g2)]

    def prob(y):
        (rc1, rnc1), (rc2, rnc2) = pairs(y)
        return float(_bell_new_core(rc1, rnc1, rc2, rnc2, 1.0)[1][0, 0])

    y = _solve(prob, 0.0, 1e-6, SIDES[side])
    reflections = iter(pairs(y))
    monkeypatch.setattr(montecarlo, "reflection_amplitudes", lambda *_: next(reflections))
    seen = herald_spy(monkeypatch, montecarlo)
    res = mc_infidelity_curve(FluctuationSpec(trials=trials, window=1), "new", [1.0])
    assert seen[0][0, 0] == SIDES[side]
    assert res.metadata["skipped_no_herald"] == (trials // 2 if side == "below" else 0)


def _names_herald_tol(node) -> bool:
    return any(
        isinstance(n, ast.Name) and n.id == "HERALD_TOL"
        or isinstance(n, ast.Attribute) and n.attr == "HERALD_TOL"
        for n in ast.walk(node)
    )


class _HeraldTolCompares(ast.NodeVisitor):
    """(file, enclosing function) of each comparison with HERALD_TOL in
    an operand."""

    def __init__(self, name: str):
        self.name, self.scope, self.found = name, [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Compare(self, node):
        if any(_names_herald_tol(operand) for operand in (node.left, *node.comparators)):
            self.found.append((self.name, ".".join(self.scope)))
        self.generic_visit(node)


def test_only_heralds_compares_against_herald_tol():
    found = []
    for path in sorted(Path(analytic.__file__).parent.glob("*.py")):
        visitor = _HeraldTolCompares(path.name)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        found += visitor.found
    assert found == [("analytic.py", "_heralds")]
