"""Machine-speed probe: wall time scaled to the machine's nominal speed.

On a shared machine the same work can take 1.6 times longer from one
minute to the next (other tenants, clock changes), so raw wall times of
identical runs spread by more than any useful regression bound.  A
`SpeedProbe` interrupts the timed code every INTERVAL_S with SIGALRM and
times a fixed kernel: 5x5 Cholesky factorizations in a Python loop, the
mix of interpreter and tiny-LAPACK work that dominates the library.  Over
seven 12-second runs, the kernel tracked per-pair JBLD, per-pair and
batched Sinkhorn in both domains, and scc_loss_grad to within 3-9% (range
over median) while raw times moved by half; a kernel of stacked array
work tracked them worse (14-22%).  The kernel's trimmed mean time over the
phase (the slowest and fastest tenth dropped: a sample that is itself
preempted says nothing about the phase), against KERNEL_NOMINAL_S, is the
phase's slowdown factor.  The probe's own time is taken out of the phase.
"""
from __future__ import annotations

import signal
import time

import numpy as np

# a kernel sample (about 1 ms) every 25 ms: the factor of a 2-second phase
# is a mean of 80 samples; at 100 ms, six runs of one cov-scc seed spread
# by 10% in query_per_s (IQR over median), at 25 ms by 3.5%
INTERVAL_S = 0.025
# the kernel's time on the reference machine (2-vCPU Xeon at 2.0 GHz,
# Python 3.11, numpy 2.4) when no other tenant slows it (its 5th
# percentile; the median was 1.6 times that); it sets the scale of nominal
# seconds, and comparisons between commits divide it out
KERNEL_NOMINAL_S = 0.46e-3

_A = np.eye(5) * 5.0 + 0.5
_STEP = 1e-3 * np.eye(5)


def kernel_time() -> float:
    t0 = time.perf_counter()
    for i in range(50):
        L = np.linalg.cholesky(_A + i * _STEP)
        float(np.log(np.diagonal(L)).sum())
    return time.perf_counter() - t0


class SpeedProbe:
    """Context manager around one timed phase.

    After the block, `wall` is the phase's wall time without the probe's
    own time, `factor` the phase's slowdown against the reference machine,
    and `nominal_wall` = wall / factor.  With enabled=False nothing
    interrupts the phase and the factor is 1 (used in traced rounds, whose
    span times are raw).
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.samples: list[float] = []
        self.stolen = 0.0
        self.wall = 0.0
        self.factor = 1.0

    def sample(self, *_):
        """Time the kernel once (also the SIGALRM handler); a no-op when
        the probe is off."""
        if not self.enabled:
            return
        t0 = time.perf_counter()
        self.samples.append(kernel_time())
        self.stolen += time.perf_counter() - t0

    def timed(self, fn):
        """Run fn(); returns its result and its wall time at nominal speed.

        For short calls repeated inside one phase: the machine's speed can
        change between two calls, so each call is scaled by the mean of a
        kernel sample taken just before it and one just after, not by the
        phase's factor.  Raw wall time when the probe is off.
        """
        self.sample()
        stolen, t0 = self.stolen, time.perf_counter()
        out = fn()
        took = time.perf_counter() - t0 - (self.stolen - stolen)
        if not self.enabled:
            return out, took
        before = self.samples[-1]
        self.sample()
        return out, took * 2 * KERNEL_NOMINAL_S / (before + self.samples[-1])

    def __enter__(self):
        if self.enabled:
            self.samples.append(kernel_time())
            self._old = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._old)
            self.samples.append(kernel_time())
            x = np.sort(self.samples)
            k = len(x) // 10
            self.factor = float(x[k:len(x) - k].mean()) / KERNEL_NOMINAL_S
        self.wall = t1 - self._t0 - self.stolen
        return False

    @property
    def nominal_wall(self) -> float:
        return self.wall / self.factor

    def nominal(self, t: float) -> float:
        """A time measured inside the phase, less the probe's share of it,
        at nominal speed."""
        raw = self.wall + self.stolen
        return t * (self.wall / raw if raw > 0 else 1.0) / self.factor
