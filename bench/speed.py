"""Times CLI calls in seconds as measured and in seconds at a fixed host speed.

The host this benchmark runs on is shared: with nothing changed, the same
pass of a workload takes from 2.5 to 6 seconds within a few minutes, and
its speed changes within a second.  Raw seconds therefore spread more
between runs than any bound a regression check could use.

`HostClock` measures the host's speed while a call runs.  A SIGALRM timer
interrupts the call every `PERIOD` seconds and runs `kernel()`, a fixed
piece of pure-Python work that does not touch the package, with the
garbage collector off.  The call's time is cut into slices at the ticks.
Each slice is divided by the kernel's duration at its two ends (each
duration the median of it and its neighbours, so one disturbed sample does
not count) and multiplied by `KERNEL_REF_S`:

- `ref_s` weighs wall-clock slices by the kernel's wall-clock duration, so
  it also takes out time the host did not run the process;
- `cpu_ref_s` is the call's CPU seconds, itself plus reaped pool workers,
  scaled by the same weighting with the kernel's CPU duration, which the
  host's pauses do not inflate.

The ticks' own time is left out of the measured and the reference seconds,
and the kernel's CPU time is left out of the call's CPU seconds.  Pool
workers are forked processes; they inherit the handler but not the timer
(setitimer(2)), so they are never interrupted.
"""

from __future__ import annotations

import gc
import resource
import signal
import time
from fractions import Fraction

PERIOD = 0.05  # seconds between speed samples
# a fixed scale, about the kernel's median duration (2.1 to 2.5 ms) on the 2-vCPU Intel Xeon host,
# Python 3.11, that the benchmark was sized on; changing it rescales every *_ref_s metric
KERNEL_REF_S = 0.0025


def kernel():
    """A fixed amount of interpreter work: Fraction arithmetic on small and 60-bit integers."""
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(1, i % 97 + 1) * Fraction(i, 2 ** (i % 60) + 1)
    return total


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Timing:
    """Seconds of one timed call: `wall_s` and `cpu_s` as measured, `*_ref_s` at the reference speed."""

    wall_s = ref_s = cpu_s = cpu_ref_s = 0.0

    def add(self, other):
        for name in ("wall_s", "ref_s", "cpu_s", "cpu_ref_s"):
            setattr(self, name, getattr(self, name) + getattr(other, name))


def _median3(values):
    """Each value replaced by the median of itself and its neighbours, so one disturbed sample does not count."""
    if len(values) < 3:
        return list(values)
    inner = [sorted(values[i - 1:i + 2])[1] for i in range(1, len(values) - 1)]
    return [inner[0], *inner, inner[-1]]


class HostClock:
    def __init__(self):
        self._slices = None
        self._kernels = None
        self._last = 0.0
        self._kernel_cpu = 0.0
        self._in_tick = False
        self.kernel_samples = []

    def _sample(self):
        """Run the kernel once; appends its (wall, CPU) seconds and adds the CPU seconds to `_kernel_cpu`."""
        gc_was_enabled = gc.isenabled()
        gc.disable()  # a collection of the program's heap inside the kernel would read as a slow host
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        kernel()
        seconds = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if gc_was_enabled:
            gc.enable()
        self._kernel_cpu += cpu
        self.kernel_samples.append(seconds)
        self._kernels.append((seconds, cpu))

    def _tick(self, signum, frame):
        if self._in_tick or self._slices is None:
            return
        self._in_tick = True
        try:
            self._slices.append(time.perf_counter() - self._last)
            self._sample()
            self._last = time.perf_counter()
        finally:
            self._in_tick = False

    def time(self, fn, *args):
        """Call fn(*args) with speed sampling; returns (its result, Timing).

        If the call raises, the timer is stopped and the exception propagates.
        """
        self._kernels = []
        self._sample()
        self._kernel_cpu = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._slices = []
        cpu0 = cpu_seconds()
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._slices.append(time.perf_counter() - self._last)
            cpu = cpu_seconds() - cpu0 - self._kernel_cpu
            slices, self._slices = self._slices, None
            signal.signal(signal.SIGALRM, previous)
            self._sample()
        return result, self._timing(slices, max(cpu, 0.0))

    def _timing(self, slices, cpu_s):
        """Weigh each slice by the kernel's speed at its two ends, on the wall and on the CPU clock."""
        walls = _median3([w for w, _ in self._kernels])
        cpus = _median3([c for _, c in self._kernels])
        timing = Timing()
        timing.wall_s = sum(slices)
        timing.cpu_s = cpu_s
        timing.ref_s = sum(s * KERNEL_REF_S * 2 / (walls[i] + walls[i + 1]) for i, s in enumerate(slices))
        cpu_scale_s = sum(s * KERNEL_REF_S * 2 / max(cpus[i] + cpus[i + 1], 1e-6) for i, s in enumerate(slices))
        if timing.wall_s > 0:
            timing.cpu_ref_s = cpu_s * cpu_scale_s / timing.wall_s
        return timing
