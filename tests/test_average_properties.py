"""Property tests for the Bloch-sphere averages: the result does not
depend on whether the quadrature nodes came from the cache, and it stays
in [0, 1]."""

from hypothesis import given, settings, strategies as st

from cavsim import CavityParams, analytic, avg_fidelity_new, avg_fidelity_old, avg_success

AVERAGES = (
    avg_fidelity_new,
    avg_fidelity_old,
    lambda p: avg_success(p, "new"),
    lambda p: avg_success(p, "old"),
)


def _outcomes(p):
    # Where the gate barely acts (small C and kappa_ratio), the new scheme's
    # fidelity has an edge layer narrower than order-4096 nodes resolve, and
    # the average raises instead of converging. That outcome, too, must not
    # depend on the cache.
    out = []
    for average in AVERAGES:
        try:
            out.append(average(p))
        except RuntimeError as exc:
            out.append(type(exc))
    return out


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    zeta=st.floats(0.0, 1.0),
    kappa_ratio=st.floats(0.0, 1.0),
    c=st.floats(0.01, 100.0),
    delta_c=st.floats(-1.0, 1.0),
    delta_a=st.floats(-1.0, 1.0),
)
def test_averages_do_not_depend_on_node_cache(zeta, kappa_ratio, c, delta_c, delta_a):
    p = CavityParams(c=c, delta_c=delta_c, delta_a=delta_a, kappa_ratio=kappa_ratio, zeta=zeta)
    analytic._nodes01.cache_clear()
    cold = _outcomes(p)
    warm = _outcomes(p)
    again = _outcomes(p)
    assert cold == warm == again
    for value in cold:
        if isinstance(value, float):
            assert 0.0 <= value <= 1.0
