"""Shared random-draw helpers for the test suite.

Everything is seeded; no test depends on wall-clock or machine state.
"""

import cmath
import math

import numpy as np
from hypothesis import strategies as st

from cavsim import CavityParams, JointState


def random_qubit_pair(rng):
    """Normalized complex amplitude pair, bounded away from zero norm."""
    while True:
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        norm = np.linalg.norm(z)
        if norm > 1e-3:
            return tuple(z / norm)


def random_joint_state(rng) -> JointState:
    ap, bp = random_qubit_pair(rng)
    aa, ba = random_qubit_pair(rng)
    return JointState(ap, bp, aa, ba)


def random_cavity_params(rng, zeta=None) -> CavityParams:
    # covers weak to strong coupling, both detuning signs and lossy mirrors
    return CavityParams(
        c=float(10.0 ** rng.uniform(-1.0, 1.5)),
        delta_c=float(rng.uniform(-2.0, 2.0)),
        delta_a=float(rng.uniform(-2.0, 2.0)),
        kappa_ratio=float(rng.uniform(0.0, 1.0)),
        zeta=float(rng.uniform(0.0, 1.0)) if zeta is None else float(zeta),
    )


# Hypothesis strategies for the edges of the parameter domain: each draw
# is an edge value or a value from the interior.


def unit_or_edge():
    return st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


def edge_phases():
    return st.one_of(
        st.sampled_from([-math.pi, math.pi, math.nextafter(math.pi, 0.0)]),
        st.floats(-math.pi, math.pi),
    )


@st.composite
def edge_cavity_params(draw, zeta=None):
    # kappa_ratio 0.5 on resonance is critical coupling, where r_nc is 0
    detuning = st.one_of(st.sampled_from([-50.0, 0.0, 50.0]), st.floats(-1.0, 1.0))
    return CavityParams(
        zeta=draw(unit_or_edge()) if zeta is None else zeta,
        kappa_ratio=draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))),
        c=draw(st.one_of(st.sampled_from([0.0, 1e-6, 1e9]), st.floats(0.01, 100.0))),
        delta_c=draw(detuning),
        delta_a=draw(detuning),
    )


@st.composite
def bloch_pairs(draw):
    """A qubit's normalized amplitude pair, the poles included."""
    theta = draw(st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, math.pi)))
    phase = draw(st.floats(-math.pi, math.pi))
    return complex(math.cos(0.5 * theta)), cmath.exp(1j * phase) * math.sin(0.5 * theta)
