"""Machine-speed calibration for every time the benchmark reports.

On a shared host the CPU's speed drifts by tens of percent over seconds, so
raw wall times of the same code differ from run to run by more than the
effects the benchmark is meant to resolve.  Each loop therefore measures
the machine's speed between blocks of work and multiplies the block's times
by the mean of the factors measured just before and just after it.
Reported times are thus in reference-speed units.  Raw times and the
factors are printed beside them.

In-process work is gauged by a fixed pure-Python kernel: the factor is
``REFERENCE_S`` over the kernel's time.  A child process is part
interpreter start and part Python execution.  The kernel alone was found to
over-correct CLI processes on this host, and a bare ``python -c pass``
alone to under-correct them, so their factor is the geometric mean of the
kernel's factor and ``INTERP_REFERENCE_S`` over the time of
``python -c pass``.

The process pins itself, and with it every process it starts, to one CPU,
so that a gauge and the work it brackets share a core.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

# round figures for the gauges on the 2-vCPU machine the benchmark was
# defined on, where the kernel took 0.6 to 1.2 ms and ``python -c pass``
# 40 to 65 ms, depending on the host's load
REFERENCE_S = 1.0e-3
INTERP_REFERENCE_S = 50e-3
_COEFFS = (1.0, -3.0, 2.9375, -0.8125, -0.1875, 0.0625123)
_EXACT = tuple(Fraction(c) for c in _COEFFS)


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


def pin_to_one_cpu() -> None:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def kernel_seconds() -> float:
    """The fastest of three runs of the kernel, so that one preempted run
    does not count as a slow machine."""
    return min(_kernel_once() for _ in range(3))


def _kernel_once() -> float:
    # the kinds of work the solver does, none of it the solver's own code:
    # an exact remainder sequence on float-derived fractions, then float
    # Horner steps with small frozen objects and math calls
    start = time.perf_counter()
    a = list(_EXACT)
    b = [c * (5 - i) for i, c in enumerate(_EXACT[:-1])]
    for _ in range(3):
        out = list(a)
        for i in range(len(a) - len(b) + 1):
            coef = out[i] / b[0]
            for j in range(1, len(b)):
                out[i + j] -= coef * b[j]
        a, b = b, [-c for c in out[len(a) - len(b) + 1:]]
    acc = 0.0
    for i in range(600):
        x = (i % 97) * 0.01
        v = 0.0
        for c in _COEFFS:
            v = v * x + c
        p = _Point(v, x)
        acc += math.hypot(p.x, p.y)
    return time.perf_counter() - start


def cpu_factor() -> float:
    """Raw-to-reference factor for in-process work, measured now."""
    return REFERENCE_S / kernel_seconds()


def process_factor(env: dict[str, str]) -> float:
    """Raw-to-reference factor for work in child processes, measured now."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
    interp = time.perf_counter() - start
    return math.sqrt(cpu_factor() * INTERP_REFERENCE_S / interp)
