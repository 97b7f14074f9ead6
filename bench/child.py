"""Run one workload child and write its own peak resident set size.

Run by the benchmark in place of the bare command:

    PYTHONPATH=src python bench/child.py PEAK_FILE -m cavsim.cli ARGS...
    PYTHONPATH=src python bench/child.py PEAK_FILE bench/crosscheck.py ARGS...

The target runs as ``__main__``, as ``python -m`` or ``python FILE``
would run it. At exit, VmHWM from /proc/self/status (kB) is written to
PEAK_FILE. VmHWM belongs to the address space made at exec, so it holds
only this process's peak. The ru_maxrss that wait4 reports does not: on
exec, Linux folds the launching process's peak into it, and the
benchmark's own peak (numpy and its reference arrays) would set a floor
under every child's figure.
"""

from __future__ import annotations

import atexit
import runpy
import sys


def write_peak(path: str) -> None:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                with open(path, "w") as out:
                    out.write(line.split()[1] + "\n")
                return


def main(argv) -> None:
    peak_path, target, *rest = argv
    atexit.register(write_peak, peak_path)
    if target == "-m":
        module, *rest = rest
        sys.argv = [module, *rest]
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    else:
        sys.argv = [target, *rest]
        runpy.run_path(target, run_name="__main__")


if __name__ == "__main__":
    main(sys.argv[1:])
