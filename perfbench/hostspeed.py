"""CPU time in reference seconds: timings scaled by the host's current speed.

On a shared host the CPU time of identical work drifts by up to 1.7x in
phases of a few seconds to minutes, as other tenants load the same
physical core.  A HostClock samples that speed while the workload runs:
a CPU-time interval timer (SIGPROF) interrupts the workload every
SAMPLE_EVERY_S of CPU time and times a fixed reference kernel whose
instruction mix resembles the workload's (`filter_kernel`: small dense
linear algebra in a Python loop; `particle_kernel`: particle-sized array
arithmetic and table lookups).  A span of workload CPU time is then
converted to reference seconds: each stretch between two samples is
scaled by REFERENCE_S over the median of the nearby kernel times.  The
kernels never call the program, so a faster program still gives
proportionally shorter reference times.

Workloads read the clock with `now()`, which excludes the kernel's own
CPU time, keep raw stamps while they run, and convert them with
`seconds()` once the measured pass is over.
"""

import signal
import time

import numpy as np
import scipy.linalg
from scipy.special import log_ndtr

SAMPLE_EVERY_S = 0.25
# Median kernel CPU seconds on the host the benchmark was tuned on (a
# shared 2-vCPU x86 VM), where reference seconds are about CPU seconds.
REFERENCE_S = {"filter": 0.03, "particle": 0.015}
# Kernel times in the median that smooths each sample.
WINDOW = 5
FILTER_STEPS = 500
PARTICLE_STEPS = 10

_rng = np.random.default_rng(20160319)
_BASE = _rng.standard_normal((12, 12))
_SPD = _BASE @ _BASE.T + 12.0 * np.eye(12)
_VEC = _rng.standard_normal(12)
_PARTICLES = _rng.standard_normal((1000, 5))
_MIX = _rng.standard_normal((5, 5))
_SATS = 2e7 * _rng.standard_normal((8, 3))
_GRID = np.linspace(-40.0, 40.0, 16385)
_TABLE = -0.5 * _GRID**2
_QUANTILES = (np.arange(1000) + 0.5) / 1000


def filter_kernel():
    """Small dense linear algebra in a Python loop, as in a VB update."""
    spd, vec = _SPD, _VEC
    for _ in range(FILTER_STEPS):
        chol = np.linalg.cholesky(spd)
        x = scipy.linalg.solve_triangular(chol, vec, lower=True)
        vec = np.clip(vec + 1e-6 * log_ndtr(x), -5.0, 5.0)
        spd = 0.5 * (spd + spd.T) + 1e-9 * np.outer(x, x)
    return float(vec.sum() + spd[0, 0])


def particle_kernel():
    """Particle-sized array arithmetic and table lookups, as in a PF step."""
    rng = np.random.default_rng(0)
    total = 0.0
    for _ in range(PARTICLE_STEPS):
        states = _PARTICLES @ _MIX.T + rng.standard_normal(_PARTICLES.shape)
        ranges = np.linalg.norm(_SATS[None, :, :] - states[:, None, :3], axis=2)
        resid = (ranges - ranges.mean(axis=0)) * 1e-6 + states[:, 3:4]
        log_w = sum(np.interp(resid[:, i], _GRID, _TABLE) for i in range(resid.shape[1]))
        w = np.exp(log_w - log_w.max())
        index = np.searchsorted(np.cumsum(w / w.sum()), _QUANTILES)
        total += float(states[np.minimum(index, 999)].mean())
    return total


KERNELS = {"filter": filter_kernel, "particle": particle_kernel}


class RawClock:
    """Plain process CPU time, for runs that do not scale timings."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def now(self):
        return time.process_time()

    def seconds(self, start, end):
        return np.asarray(end, dtype=float) - np.asarray(start, dtype=float)


class HostClock:
    """Process CPU time without the kernel's, converted to reference seconds.

    Use as a context manager around the measured pass; `seconds()` is
    valid after the block has ended.
    """

    def __init__(self, kernel):
        self._kernel = KERNELS[kernel]
        self._reference_s = REFERENCE_S[kernel]
        self._kernel_cpu = 0.0
        self._stamps = []  # now() at each sample
        self._kernel_s = []  # CPU seconds of the kernel at each sample
        self._previous = None

    def now(self):
        return time.process_time() - self._kernel_cpu

    def sample(self, *_):
        start = time.process_time()
        self._kernel()
        end = time.process_time()
        self._stamps.append(start - self._kernel_cpu)
        self._kernel_s.append(end - start)
        self._kernel_cpu += end - start

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        self.sample()
        return False

    def summary(self):
        """Kernel name, sample count and kernel CPU-time quartiles."""
        quartiles = np.percentile(self._kernel_s, [25, 50, 75]) if self._kernel_s else []
        return {"kernel": self._kernel.__name__, "samples": len(self._stamps),
                "reference_s": self._reference_s,
                "kernel_s_quartiles": [float(q) for q in quartiles]}

    def seconds(self, start, end):
        """Reference seconds between raw `now()` stamps (scalars or arrays)."""
        return self._integral(end) - self._integral(start)

    def _integral(self, t):
        # Reference seconds from the first sample to t: piecewise linear,
        # with slope REFERENCE_S / (smoothed kernel time) on the stretch
        # that ends at each sample.
        stamps = np.asarray(self._stamps)
        kernel = np.asarray(self._kernel_s)
        half = WINDOW // 2
        smooth = np.array([np.median(kernel[max(0, i - half):i + half + 1])
                           for i in range(len(kernel))])
        rate = self._reference_s / smooth
        cumulative = np.concatenate(([0.0], np.cumsum(np.diff(stamps) * rate[1:])))
        t = np.asarray(t, dtype=float)
        inside = np.interp(t, stamps, cumulative)
        before = cumulative[0] - (stamps[0] - t) * rate[0]
        after = cumulative[-1] + (t - stamps[-1]) * rate[-1]
        return np.where(t < stamps[0], before, np.where(t > stamps[-1], after, inside))
