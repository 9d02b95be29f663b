"""Machine-speed reference: a fixed numpy kernel timed next to every trial.

On a shared 2-core VM the same trial's wall time swings by 1.7x within
seconds, and the mix of slow and fast periods differs from run to run (the
same trial pool took 27 s to 38 s). The kernel below does one ADMM-like
step on fixed data: a 30x30 complex SVD, a shrink, a scatter and a gather.
It uses no wlift code, so no change to the package can move it, and it
slows down with the machine by the same factor the trials do (measured: a
trial's time / the kernel's time has a 9% coefficient of variation, against
28% for the trial's raw time).

A trial's reported time is its wall time scaled by REF_S / (the kernel's
mean time around and during the trial): the time the trial would take
when the machine runs as fast as when REF_S was measured.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

# The kernel's time on the uncontended 2-core Xeon VM the benchmark was
# written on. Changing it rescales every reported time.
REF_S = 0.00073
REPS = 3
CHUNKS = 3


class Kernel:
    """The reference kernel and the times it took."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
        self.rows = rng.integers(0, 30, 900)
        self.cols = rng.integers(0, 30, 900)
        self.elem = rng.integers(0, 59, 900)
        self.samples = []   # appended to by a running Sampler
        self._last = self.seconds()

    def seconds(self) -> float:
        """Median thread CPU time of CHUNKS runs of REPS steps.

        Thread CPU time leaves out the time this thread waits for a core,
        but keeps the time the machine takes away from a running core, as a
        trial's wall time does. The median ignores a chunk an interrupt hit.
        """
        times = []
        for _ in range(CHUNKS):
            start = time.thread_time()
            m = self.a
            for _ in range(REPS):
                u, s, vh = np.linalg.svd(m, full_matrices=False)
                b = (u * np.maximum(s - 0.5, 0.0)) @ vh
                v = b[self.rows, self.cols]
                acc = (np.bincount(self.elem, weights=v.real, minlength=59)
                       + 1j * np.bincount(self.elem, weights=v.imag,
                                          minlength=59))
                m = self.a + 0.01 * acc[self.elem].reshape(30, 30)
            times.append(time.thread_time() - start)
        return statistics.median(times)

    def timed(self, fn, *args):
        """Call fn(*args); (result, wall seconds, seconds at reference speed).

        The machine's speed during the call is the mean kernel time just
        before and just after it and, while a Sampler runs, of every sample
        taken during it. The kernel runs after every call, so consecutive
        calls share the measurement between them.
        """
        before = self._last
        mark = len(self.samples)
        start = time.perf_counter()
        out = fn(*args)
        wall = time.perf_counter() - start
        self._last = self.seconds()
        speed = statistics.fmean([before, self._last, *self.samples[mark:]])
        return out, wall, wall * REF_S / speed


class Sampler:
    """Runs the kernel every `interval` seconds on a background thread.

    A trial of a second or more can span a change of machine speed that
    the kernel runs before and after it do not see, and a child process
    that keeps both cores busy runs at a speed they cannot see at all.
    """

    def __init__(self, kernel, interval=0.1):
        self.kernel = kernel
        self.interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(self.interval):
            self.kernel.samples.append(self.kernel.seconds())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def scale(seconds: float, before: float, after: float) -> float:
    """Wall seconds expressed at the reference machine speed."""
    return seconds * REF_S / ((before + after) / 2.0)
