"""Host-speed normalization: time a calibration probe while the program runs.

On a shared host the same code runs up to 1.7x slower for stretches of
seconds to minutes, and the CPU time moves with the wall time, so raw
seconds of one run say as much about the neighbours as about the program.
`Pacer.timed` therefore runs a fixed probe (about 2 ms) before, during and
after the timed code: every `INTERVAL_S` an interval timer interrupts the
program, and the signal handler times the probe.  Each stretch of program
time between two probes is then scaled by the host's speed around it:

    normalized = sum(gap / factor),  factor = mean(probe / reference)

where the probe has a pure-Python part (dict updates, like the sparse
sequence code) and a numpy part (complex exponentials and products, like
the phase matrices of the dense kernels), each divided by its reference duration
(`PY_REF_S`, `NP_REF_S`).  ``factor`` is a running median over the probes
next to each gap, so one disturbed probe does not skew a gap.  The probe's
own time is taken out of the raw figures.  The references only set the
scale: a normalized second is a second at the speed where the probe takes
its reference time, which is this probe's typical speed on a 2-core x86
host with CPython 3.11 and OpenBLAS.  Compare normalized figures only
between runs whose machine blocks agree.

The handler runs between bytecodes of the main thread, so a long numpy call
is not interrupted: its stretch is scaled by the probes on either side.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

#: seconds between probes while timed code runs
INTERVAL_S = 0.1
#: reference durations of the two probe parts
PY_REF_S = 1.0e-3
NP_REF_S = 0.6e-3
#: probes on each side of a gap that its speed factor is the median of
SMOOTH = 2


@dataclass
class Timing:
    """Figures of one timed stretch; ``wall_s``/``cpu_s`` are normalized,
    the ``raw_`` ones are as measured minus the probes' own time."""

    raw_wall_s: float = 0.0
    raw_cpu_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    probes: int = 0


class Pacer:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.normal(size=(128, 128))
        self._samples = []
        self._busy = False
        self._probe()  # first-call costs stay out of the figures

    def _probe(self) -> tuple[float, float, float, float]:
        """(start, end, cpu seconds, speed factor) of one probe."""
        c0 = time.process_time()
        t0 = time.perf_counter()
        d = {}
        for i in range(1500):
            k = (i % 311, i % 127)
            d[k] = d.get(k, 0j) + complex(i, 1)
        t1 = time.perf_counter()
        y = np.exp(1j * self._x)
        (y * y[::-1]).sum()
        t2 = time.perf_counter()
        factor = 0.5 * ((t1 - t0) / PY_REF_S + (t2 - t1) / NP_REF_S)
        return t0, t2, time.process_time() - c0, factor

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self._samples.append(self._probe())
        finally:
            self._busy = False

    @contextlib.contextmanager
    def timed(self):
        """Time the body; the yielded `Timing` is filled in on exit, also
        when the body raises."""
        timing = Timing()
        before = self._probe()
        self._samples = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        c0 = time.process_time()
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            t1 = time.perf_counter()
            c1 = time.process_time()
            signal.signal(signal.SIGALRM, previous)
            inside = [s for s in self._samples if t0 <= s[0] and s[1] <= t1]
            after = self._probe()
            _fill(timing, t0, t1, c1 - c0, before, inside, after)


def _fill(timing: Timing, t0: float, t1: float, cpu: float, before, inside, after) -> None:
    edges = [t0] + [t for s in inside for t in (s[0], s[1])] + [t1]
    gaps = [edges[2 * j + 1] - edges[2 * j] for j in range(len(inside) + 1)]
    factors = [before[3]] + [s[3] for s in inside] + [after[3]]
    wall = 0.0
    for j, gap in enumerate(gaps):
        # gap j lies between factors[j] and factors[j + 1]
        window = factors[max(0, j + 1 - SMOOTH): j + 1 + SMOOTH]
        wall += gap / statistics.median(window)
    timing.raw_wall_s = sum(gaps)
    timing.raw_cpu_s = max(cpu - sum(s[2] for s in inside), 0.0)
    timing.wall_s = wall
    timing.cpu_s = timing.raw_cpu_s * wall / timing.raw_wall_s if timing.raw_wall_s > 0 else 0.0
    timing.probes = len(inside)


@contextlib.contextmanager
def plain_timed():
    """`Pacer.timed` without probes: raw and normalized figures agree."""
    timing = Timing()
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        yield timing
    finally:
        timing.raw_wall_s = timing.wall_s = time.perf_counter() - t0
        timing.raw_cpu_s = timing.cpu_s = time.process_time() - c0
