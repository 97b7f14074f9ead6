"""The four closed-form kernels take Python scalars (the gate and the
entanglement functions) and numpy arrays: the Monte Carlo uses only the
two Bell kernels, and the array form of the gate kernels serves the
Gauss-Legendre references. Both evaluations must agree elementwise, and
every outcome's fidelity numerator and herald probability p satisfy
0 <= num <= p <= 1."""

import itertools
import math

import numpy as np
import pytest

from cavsim.analytic import _new_core, _old_core
from cavsim.cavity import reflection_amplitudes
from cavsim.entangle import _bell_new_core, _bell_old_core


def _cloud(n=400, seed=41):
    """Seeded cavities, populations and phases, the edge values included."""
    rng = np.random.default_rng(seed)
    cols = {
        "c": 10.0 ** rng.uniform(-6.0, 9.0, n),
        "dc": rng.uniform(-50.0, 50.0, n),
        "da": rng.uniform(-50.0, 50.0, n),
        "kr": rng.uniform(0.0, 1.0, n),
        "zeta": rng.uniform(0.0, 1.0, n),
        "b": rng.uniform(0.0, 1.0, n),
        "u": rng.uniform(0.0, 1.0, n),
        "att": rng.uniform(0.0, 1.0, n),
        "phi": rng.uniform(-math.pi, math.pi, n),
    }
    edges = {
        "c": (0.0, 1e-6, 1e9),
        "dc": (0.0, -50.0, 50.0),
        "da": (0.0, 50.0),
        "kr": (0.0, 0.5, 1.0),
        "zeta": (0.0, 1.0),
        "b": (0.0, 1.0),
        "u": (0.0, 1.0),
        "att": (0.0, 1.0),
        "phi": (0.0, math.pi),
    }
    # every edge combination of the cavity, crossed with the other edges in turn
    corners = list(itertools.product(*(edges[k] for k in ("c", "dc", "da", "kr"))))
    others = list(itertools.product(*(edges[k] for k in ("zeta", "b", "u", "att", "phi"))))
    rows = [corner + others[i % len(others)] for i, corner in enumerate(corners * 2)]
    extra = np.array(rows, dtype=float).T
    return {k: np.concatenate([v, extra[i]]) for i, (k, v) in enumerate(cols.items())}


def _assert_elementwise(arrays, scalars):
    for k, (arr, column) in enumerate(zip(arrays, zip(*scalars))):
        for i, (a, s) in enumerate(zip(arr, column)):
            assert abs(a - s) <= 1e-15 * max(1.0, abs(s)), (k, i, a, s)


@pytest.fixture(scope="module")
def cloud():
    x = _cloud()
    r_c, r_nc = reflection_amplitudes(x["c"], x["dc"], x["da"], x["kr"])
    # the second node of the two-node kernels: the same cloud, shifted by one
    x["r_c"], x["r_nc"] = r_c, r_nc
    x["r_c2"], x["r_nc2"] = np.roll(r_c, 1), np.roll(r_nc, 1)
    x["phase"] = np.exp(1j * x["phi"])
    return x


def _scalars(x, keys):
    return [tuple(complex(v) if np.iscomplexobj(v) else float(v) for v in row)
            for row in zip(*(x[k] for k in keys))]


def test_new_core_arrays_match_scalars(cloud):
    x = cloud
    arrays = _new_core(x["r_c"], x["r_nc"], x["zeta"], 1.0 - x["b"], x["b"], x["phase"], x["att"])
    rows = _scalars(x, ("r_c", "r_nc", "zeta", "b", "phase", "att"))
    _assert_elementwise(arrays, [_new_core(rc, rnc, z, 1.0 - b, b, ph, att)
                                 for rc, rnc, z, b, ph, att in rows])


def test_old_core_arrays_match_scalars(cloud):
    x = cloud
    # populations whose product is u: the photon's b and the atom's u / b
    ba = np.divide(x["u"], x["b"], out=np.ones_like(x["u"]), where=x["b"] > x["u"])
    arrays = _old_core(x["r_c"], x["r_nc"], x["zeta"], 1.0 - x["b"], x["b"], 1.0 - ba, ba)
    rows = zip(_scalars(x, ("r_c", "r_nc", "zeta", "b")), ba.tolist())
    _assert_elementwise(arrays, [_old_core(rc, rnc, z, 1.0 - b, b, 1.0 - a, a)
                                 for (rc, rnc, z, b), a in rows])


def test_bell_new_core_arrays_match_scalars(cloud):
    x = cloud
    arrays = _bell_new_core(x["r_c"], x["r_nc"], x["r_c2"], x["r_nc2"], x["phase"])
    rows = _scalars(x, ("r_c", "r_nc", "r_c2", "r_nc2", "phase"))
    _assert_elementwise(arrays, [_bell_new_core(*row) for row in rows])


def test_bell_old_core_arrays_match_scalars(cloud):
    x = cloud
    arrays = _bell_old_core(x["r_c"], x["r_nc"], x["r_c2"], x["r_nc2"])
    rows = _scalars(x, ("r_c", "r_nc", "r_c2", "r_nc2"))
    _assert_elementwise(arrays, [_bell_old_core(*row) for row in rows])


def test_bell_kernels_return_probabilities(cloud):
    x = cloud
    num, p = _bell_new_core(x["r_c"], x["r_nc"], x["r_c2"], x["r_nc2"], x["phase"])
    num_phi, p_phi, num_psi, p_psi = _bell_old_core(x["r_c"], x["r_nc"], x["r_c2"], x["r_nc2"])
    for n, q in ((num, p), (num_phi, p_phi), (num_psi, p_psi)):
        assert np.all(q >= 0.0)
        assert np.all(n <= q * (1.0 + 1e-12))
    assert np.all(p <= 1.0)
    assert np.all(p_phi + p_psi <= 1.0 + 1e-12)


def test_old_branches_sum_to_one_for_lossless_reflections():
    phases = np.random.default_rng(43).uniform(-4.0, 4.0, (4, 10**5))
    _, p_phi, _, p_psi = _bell_old_core(*np.exp(1j * phases))
    assert np.max(np.abs(p_phi + p_psi - 1.0)) <= 1e-15


def test_cloud_reaches_the_edges(cloud):
    # exact zeros among the kernels' inputs: r_nc at critical coupling on
    # resonance, g where r_c = r_nc (no atom), and a two-node herald probability
    assert np.any(cloud["r_nc"] == 0.0)
    assert np.any(cloud["r_c"] == cloud["r_nc"])
    _, p = _bell_new_core(cloud["r_c"], cloud["r_nc"], cloud["r_c2"], cloud["r_nc2"], 1.0)
    assert np.any(p == 0.0)
