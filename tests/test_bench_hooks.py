"""The benchmark's traced run wraps functions by name; a renamed hook
point must fail here instead of aborting `bench/run.py --series`."""

from pathlib import Path

from cavsim import CavityParams, cli, montecarlo

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracing_hooks_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    original = cli.sweep_1d
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert cli.sweep_1d is not original
    finally:
        tracer.restore()
    assert cli.sweep_1d is original is montecarlo.sweep_1d


def test_sweep_averages_are_traced(monkeypatch):
    # sweep_1d must reach the averages through montecarlo's namespace,
    # or the traced run reads analytic.avg.calls as 0
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        for scheme in ("new", "old"):
            cli.sweep_1d(CavityParams(c=4.0), "zeta", [0.8, 0.9, 1.0], scheme)
    finally:
        tracer.restore()
    assert [span[0] for span in tracer.spans].count("analytic.avg") == 6
