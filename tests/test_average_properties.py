"""Property tests for the Bloch-sphere averages over the whole parameter
domain, its edges included: every average is a float in [0, 1], and the
old scheme's fidelity average either is one too or raises NoHeraldError
where nothing heralds."""

from hypothesis import given, settings

from cavsim import NoHeraldError, analytic, avg_fidelity_old, avg_success
from conftest import edge_cavity_params, edge_phases


@settings(max_examples=40, deadline=None, derandomize=True)
@given(p=edge_cavity_params(), phi=edge_phases())
def test_averages_are_probabilities_on_the_edges(p, phi):
    values = [analytic.avg_fidelity_new(p, phi), avg_success(p, "new"), avg_success(p, "old")]
    try:
        values.append(avg_fidelity_old(p))
    except NoHeraldError:
        pass
    for value in values:
        assert isinstance(value, float)
        assert 0.0 <= value <= 1.0
