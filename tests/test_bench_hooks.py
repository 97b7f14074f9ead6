"""The benchmark's traced run wraps functions by name; a renamed hook
point must fail here instead of aborting `bench/run.py --series`."""

from pathlib import Path

from cavsim import cli, montecarlo

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
