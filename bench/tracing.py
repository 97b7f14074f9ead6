"""Traced run of one workload, in process, with spans kept in memory.

Run as a child of the benchmark:

    PYTHONPATH=src python bench/tracing.py TRACE.json cli <cavsim CLI args>
    PYTHONPATH=src python bench/tracing.py TRACE.json crosscheck POINTS.json OUT.json

Wrappers are installed at the names callers look functions up by (for
example ``cavsim.montecarlo.reflection_amplitudes``, which ``_mc_point``
calls); nothing under src/ changes. Each wrapped call records a span
(name, start, end, parent, thread). The parent is the innermost open span
on the same thread; on a pool thread with no open span it is the
innermost open span of the main thread, so worker calls nest under the
``mc_infidelity_curve`` call that started the pool. Spans and counters are
written to TRACE.json when the workload ends; ``summarize`` turns them
into per-layer numbers.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, thread]
        self.counters = defaultdict(int)
        self._stacks = {}
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()
        self._patched = []

    def _open(self, name):
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            owner = stack or self._stacks.get(self._main) or [None]
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, owner[-1], tid])
            stack.append(idx)
        return idx, stack

    def wrap(self, name, fn, after=None):
        """Span around every call of fn; after(args, result) may add counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, stack = self._open(name)
            span = self.spans[idx]
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                with self._lock:  # pool threads read the main thread's stack
                    stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def track_max(self, counter, size):
        with self._lock:
            if size > self.counters[counter]:
                self.counters[counter] = size

    def add(self, counter, amount):
        with self._lock:
            self.counters[counter] += amount

    def patch(self, owner, attr, name, after=None):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def probe(self, owner, attr, after):
        """Counter hook without a span, for calls too small and many to span."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))

        @functools.wraps(original)
        def probed(*args, **kwargs):
            result = original(*args, **kwargs)
            after(args, result)
            return result

        setattr(owner, attr, probed)

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def install(tracer: Tracer) -> None:
    """Wrap the public functions of each layer at their call sites."""
    import numpy as np

    from cavsim import analytic, cavity, cli, montecarlo, oracle

    def written(args, _result):
        tracer.add("montecarlo.write.bytes", os.path.getsize(args[1]))

    tracer.patch(cli, "mc_infidelity_curve", "montecarlo.mc_infidelity_curve")
    tracer.patch(cli, "sweep_1d", "montecarlo.sweep_1d")
    tracer.patch(montecarlo.SweepResult, "to_csv", "montecarlo.write", written)
    tracer.patch(montecarlo.SweepResult, "to_json", "montecarlo.write", written)
    tracer.patch(montecarlo, "reflection_amplitudes", "cavity.reflection_amplitudes")
    tracer.patch(cavity, "reflection_amplitudes", "cavity.reflection_amplitudes")
    for fn in ("avg_fidelity_new", "avg_fidelity_old", "avg_success"):
        tracer.patch(montecarlo, fn, "analytic.avg")
    tracer.patch(np.polynomial.legendre, "leggauss", "numpy.leggauss")
    for fn in ("cz_new_from_reflections", "cz_old_from_reflections"):
        tracer.patch(analytic, fn, f"analytic.{fn}")
    for fn in ("run_cz_new", "run_cz_old", "run_remote_new"):
        tracer.patch(oracle, fn, f"oracle.{fn}")

    def labels(_args, result):
        state = result[0] if isinstance(result, tuple) else result
        if state is not None:
            tracer.track_max("oracle.max_labels", len(state.amps))

    for fn in (
        "prepare_photon_atom", "apply_pbs", "apply_hwp", "apply_qwp", "apply_phase",
        "apply_attenuator", "apply_scattering", "herald", "measure_polarization",
    ):
        tracer.probe(oracle, fn, labels)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    out = []
    for idx, (_name, start, end, _parent, _tid) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def summarize(trace: dict) -> dict:
    """Per-layer numbers of one traced pass: calls, total ms, self ms per span name."""
    spans = trace["spans"]
    out = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        out[f"{name}.calls"] += 1
        out[f"{name}.ms"] += (span[2] - span[1]) * 1e3
        out[f"{name}.self_ms"] += own * 1e3
    out.update(trace["counters"])
    return dict(out)


def main(argv) -> int:
    trace_path, kind, *rest = argv
    tracer = Tracer()
    install(tracer)
    if kind == "cli":
        from cavsim import cli

        entry = tracer.wrap("cli.main", cli.main)
    elif kind == "crosscheck":
        import crosscheck

        entry = tracer.wrap("crosscheck.main", crosscheck.main)
    else:
        raise SystemExit(f"unknown traced entry {kind!r}")
    try:
        code = entry(rest)
    finally:
        tracer.restore()
    with open(trace_path, "w") as fh:
        json.dump({"spans": tracer.spans, "counters": dict(tracer.counters)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
