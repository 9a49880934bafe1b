"""Machine-speed calibration of measured times.

The CPU of a shared virtual machine changes speed by up to a third for tens
of seconds at a time (measured on a 2-vCPU Xeon VM: 10-second windows of a
fixed item spread by 13 % between quartiles).  Every reported time is
therefore scaled to a nominal machine speed: a fixed reference kernel, which
uses none of the program's code, runs between stretches of timed items, and
a stretch's times are multiplied by ``REFERENCE_MS`` over the mean duration
of the calibrations around it.  On that VM this cut the quartile spread of
the fixed item's 10-second mean to 1 %.  Items whose mix of interpreter and
numpy work differs from the kernel's follow the machine less closely, so
some spread remains (largest for the tail of the cli workload).  Times keep
their units (ms or s at the nominal speed); a change to the program moves
them while a change of machine speed does not.
"""

from __future__ import annotations

import gc
import statistics
import time
from array import array
from fractions import Fraction

import numpy as np
from mpmath import mp

# Nominal duration of one reference_kernel() call; it fixes the scale of
# every reported time (about its median on a 2-vCPU Xeon VM, Python 3.11).
REFERENCE_MS = 2.0
# Item time between two calibrations; the kernel runs cost about 6 % of it.
STRETCH_S = 0.1
# Kernel runs per calibration; their median resists a single disturbed run.
RUNS_PER_CALIBRATION = 3

_COEFFS = (27, -48, 25, -44, 16)
_GRID = np.linspace(0.01, 0.77, 2000)


def reference_kernel():
    """A fixed mix of exact-rational, 30-digit mpmath and float64 numpy work."""
    x = Fraction(1, 3)
    acc = Fraction(0)
    for i in range(40):
        value = Fraction(0)
        for c in _COEFFS:
            value = value * x + c
        acc += value
        x = (x + Fraction(1, 2 ** (i % 24 + 1))) / 2
    with mp.workdps(30):
        s = mp.mpf(0)
        for i in range(1, 13):
            t = mp.mpf(i) / 20
            s += mp.cot(t) + mp.tan(t) ** 2 + mp.acos(mp.sqrt(t / 2))
    return acc, s, float(np.tan(_GRID).sum())


def reference_ms() -> float:
    """Duration of one kernel run, with garbage collection held off so it times the machine only."""
    gc.disable()
    try:
        start = time.perf_counter()
        reference_kernel()
        return (time.perf_counter() - start) * 1e3
    finally:
        gc.enable()


def calibration_ms() -> float:
    """Median duration of a few kernel runs."""
    return statistics.median(reference_ms() for _ in range(RUNS_PER_CALIBRATION))


class Calibrated:
    """Collects raw item times and scales each stretch by the kernel runs around it."""

    def __init__(self):
        # Flat float arrays, so that the harness's own memory barely grows with throughput.
        self.raw = array("d")
        self.scaled = array("d")
        self._pending = []
        self._pending_s = 0.0
        self._last_ref = calibration_ms()

    def add(self, seconds: float):
        self.raw.append(seconds)
        self._pending.append(seconds)
        self._pending_s += seconds
        if self._pending_s >= STRETCH_S:
            self.flush()

    def flush(self):
        if not self._pending:
            return
        ref = calibration_ms()
        factor = REFERENCE_MS / ((self._last_ref + ref) / 2)
        self.scaled.extend(t * factor for t in self._pending)
        self._last_ref = ref
        self._pending = []
        self._pending_s = 0.0
