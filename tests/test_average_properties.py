"""Property tests for the Bloch-sphere averages over the whole parameter
domain, its edges included: every average is a float in [0, 1], and the
old scheme's fidelity average either is one too or raises NoHeraldError
where nothing heralds."""

import math

from hypothesis import given, settings, strategies as st

from cavsim import CavityParams, NoHeraldError, analytic, avg_fidelity_old, avg_success


def _unit_or_edge():
    return st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    zeta=_unit_or_edge(),
    kappa_ratio=_unit_or_edge(),
    c=st.one_of(st.sampled_from([0.0, 1e-6, 1e9]), st.floats(0.01, 100.0)),
    delta_c=st.one_of(st.sampled_from([-50.0, 50.0]), st.floats(-1.0, 1.0)),
    delta_a=st.one_of(st.sampled_from([-50.0, 50.0]), st.floats(-1.0, 1.0)),
    phi=st.one_of(
        st.sampled_from([-math.pi, math.pi, math.nextafter(math.pi, 0.0)]),
        st.floats(-math.pi, math.pi),
    ),
)
def test_averages_are_probabilities_on_the_edges(zeta, kappa_ratio, c, delta_c, delta_a, phi):
    p = CavityParams(c=c, delta_c=delta_c, delta_a=delta_a, kappa_ratio=kappa_ratio, zeta=zeta)
    values = [analytic.avg_fidelity_new(p, phi), avg_success(p, "new"), avg_success(p, "old")]
    try:
        values.append(avg_fidelity_old(p))
    except NoHeraldError:
        pass
    for value in values:
        assert isinstance(value, float)
        assert 0.0 <= value <= 1.0
