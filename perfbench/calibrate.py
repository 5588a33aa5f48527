"""Host-speed calibration for the untraced benchmark runs.

On a shared host the speed of one core drifts by tens of percent over
minutes, and process CPU time drifts with wall time (the slowdown is not
stolen time), so the same pass of the same code can take 33 s or 53 s.
`Sampler` times a fixed calibration loop, which uses no cavelast code,
every `INTERVAL_S` seconds from a SIGALRM handler while an operation is
being timed. A pass's time is then rescaled to the loop's nominal speed:

    norm_s = raw_s * mean(NOMINAL_PROBE_S / probe time), over the pass

The handler's own time is taken out of the operation's time. The loop mixes
interpreted Python with numpy work on small and mid-sized arrays, as the
gate, the descent and the radial solver do, so host slowdowns hit it and
the workloads alike.
"""

import signal
import time

import numpy as np

INTERVAL_S = 0.25
# median probe time on the baseline machine (see README.md, Baseline)
NOMINAL_PROBE_S = 0.0085

_RNG = np.random.default_rng(12345)
_SMALL = [_RNG.uniform(1.0, 2.0, 96) for _ in range(8)]
_BIG = _RNG.standard_normal(500_000)


def probe() -> float:
    """Runs the calibration loop once; returns its checksum.

    Three parts of about equal time: numpy calls on arrays of 96 values (the
    size of a radial profile, and of the per-loop work of the gate), sums
    over a 4 MB array (cache and memory traffic), and a pure-Python loop.
    """
    acc = 0.0
    for k in range(180):
        v = _SMALL[k % 8]
        acc += float(np.sum(np.diff(v) ** 2) + np.log(v).sum())
    for _ in range(10):
        acc += float(_BIG.sum())
    x = 0
    for i in range(28000):
        x += (i * i) % 7
    return acc + x


class Sampler:
    """Samples the calibration loop while `active` is set.

    Use as a context manager around a pass; `spent` is the handler time so
    far, which the caller subtracts from whatever it timed meanwhile.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.active = False
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def sample(self):
        t0 = time.perf_counter()
        probe()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def _handler(self, signum, frame):
        if self.active:
            self.active = False  # a late signal must not nest a sample
            try:
                self.spent += self.sample()
            finally:
                self.active = True

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.active = False
        return False

    def speed(self, start: int = 0) -> float:
        """Mean of nominal over probe time for the samples from `start` on;
        below 1 means the host ran slower than the baseline machine."""
        got = self.samples[start:]
        return sum(NOMINAL_PROBE_S / t for t in got) / len(got)
