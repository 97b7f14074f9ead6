"""Crosscheck driver: closed forms against the network oracle, point by point.

Run as a child of the benchmark:

    PYTHONPATH=src python bench/crosscheck.py POINTS.json OUT.json

POINTS.json holds the generated points (see ``make_points`` in run.py).
For every point the driver evaluates

* ``cz_new_from_reflections`` against ``run_cz_new``,
* ``cz_old_from_reflections`` against ``run_cz_old``,
* and, for points that carry a second cavity (zeta = 1 on both),
  ``atom_atom_new`` against ``run_remote_new``,

and writes, per point, the largest absolute gap between the two sides
and whether they disagreed on heralding. Judging the gaps is left to the
benchmark. Library functions are looked up through their modules at call
time, so the tracing wrappers in tracing.py see every call.
"""

from __future__ import annotations

import json
import math
import sys

from cavsim import analytic, cavity, entangle, oracle


def _state(v) -> analytic.JointState:
    ap, bp, aa, ba = (complex(re, im) for re, im in v)
    return analytic.JointState(ap, bp, aa, ba)


def _gate_gap(a, b) -> tuple[float, bool]:
    if a.no_herald != b.no_herald:
        return math.inf, True
    gap = max(
        abs(a.success_probability - b.success_probability),
        abs(a.p_loss - b.p_loss),
    )
    if not a.no_herald:
        gap = max(gap, abs(a.fidelity - b.fidelity))
    return gap, False


def check_point(pt: dict) -> tuple[float, bool]:
    """Largest closed-form/oracle gap at one point, and a herald mismatch flag."""
    p = cavity.CavityParams(**pt["cavity"])
    refl = cavity.reflection_lossy(p)
    s = _state(pt["state"])
    phi = pt["phi"]
    gap_new, bad_new = _gate_gap(
        analytic.cz_new_from_reflections(refl, p.zeta, s, phi=phi),
        oracle.run_cz_new(refl, p.zeta, s, phi=phi),
    )
    gap_old, bad_old = _gate_gap(
        analytic.cz_old_from_reflections(refl, p.zeta, s),
        oracle.run_cz_old(refl, p.zeta, s),
    )
    gap, mismatch = max(gap_new, gap_old), bad_new or bad_old
    if "cavity2" in pt:
        p2 = cavity.CavityParams(**pt["cavity2"])
        f1, f2 = pt["phi1"], pt["phi2"]
        res = oracle.run_remote_new(refl, cavity.reflection_lossy(p2), f1, f2)
        try:
            closed = entangle.atom_atom_new(entangle.TwoCavitySetup(p, p2, f1, f2))
        except analytic.NoHeraldError:
            mismatch = mismatch or res.herald_probability >= oracle.HERALD_TOL
        else:
            gap = max(gap, abs(res.fidelity_v - closed), abs(res.fidelity_h - closed))
    return gap, mismatch


def main(argv) -> int:
    points_path, out_path = argv
    with open(points_path) as fh:
        points = json.load(fh)
    gaps, mismatches = [], []
    for pt in points:
        gap, mismatch = check_point(pt)
        gaps.append(gap if math.isfinite(gap) else None)
        mismatches.append(mismatch)
    with open(out_path, "w", newline="") as fh:
        json.dump({"gap": gaps, "herald_mismatch": mismatches}, fh, allow_nan=False)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
