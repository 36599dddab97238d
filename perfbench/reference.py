"""A reference kernel: fixed numpy work timed beside judou's calls, so that a
run reports its times at one nominal machine speed.

On a shared host the same call can run 1.5x slower for tens of seconds to
minutes at a time, while other tenants load the hardware under the vCPU.
Wall-clock times over a run then follow the neighbours more than the
program. So after every timed call the run times a kernel of the kind of
work most of judou's time goes to: batch-1 LSTM steps, small matrix-vector
products and elementwise gates driven from Python. The kernel is part of
the benchmark, not of judou, so it does not change when the program does:
a call's time over the kernel's time moves only with the program.
"""

import statistics
import time

import numpy as np

# Mean seconds of one warm kernel call at the nominal speed: about the median
# over six 40-second runs on a 2-vCPU Xeon host (later runs there measured
# 0.8 to 1.0 of it). Times are reported as measured time * NOMINAL_S / mean
# kernel time of the run.
NOMINAL_S = 1.35e-3
# one timed kernel call per this many seconds of the call before it, so the
# kernel samples the run in proportion to the time each call takes
STRIDE_S = 0.02

HIDDEN = 100
STEPS = 40


def _lstm_steps():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((STEPS, HIDDEN))
    w = rng.standard_normal((HIDDEN, 4 * HIDDEN)) * 0.1
    u = rng.standard_normal((HIDDEN, 4 * HIDDEN)) * 0.1

    def run():
        h = np.zeros(HIDDEN)
        c = np.zeros(HIDDEN)
        for t in range(STEPS):
            z = x[t] @ w + h @ u
            i = 1.0 / (1.0 + np.exp(-z[:HIDDEN]))
            f = 1.0 / (1.0 + np.exp(-z[HIDDEN:2 * HIDDEN]))
            o = 1.0 / (1.0 + np.exp(-z[2 * HIDDEN:3 * HIDDEN]))
            c = f * c + i * np.tanh(z[3 * HIDDEN:])
            h = o * np.tanh(c)
        return h

    return run


class Reference:
    """The kernel, timed warm after each call of a run."""

    def __init__(self):
        self._run = _lstm_steps()
        self.samples = []

    def sample(self, after_s: float) -> None:
        """Time the kernel once per STRIDE_S of a call that took after_s."""
        # the untimed call brings back what the call before it evicted
        self._run()
        for _ in range(max(1, round(after_s / STRIDE_S))):
            t0 = time.perf_counter()
            self._run()
            self.samples.append(time.perf_counter() - t0)

    def slowdown(self) -> float:
        """Mean kernel time over its nominal time: 1.0 at the nominal speed,
        1.5 while the machine runs the kernel 1.5x slower."""
        return statistics.fmean(self.samples) / NOMINAL_S
