"""Host-speed probe: a fixed reference kernel timed around every operation.

On a shared 2-vCPU cloud VM (Intel Xeon, 2.1 GHz) the speed of the same code
changes by up to 1.6x from one second to the next and from one minute to the
next, because other tenants share its cores, so raw times differ by 15-40 %
between runs.  The
benchmark therefore runs a fixed reference kernel, which uses nothing from
skelgraph, before every operation and once more at the end, and scales each
operation's time by the kernel's nominal time over its mean time in the
bunches just before and just after it.  A scaled time is the time the
operation would take on a host where one kernel pass takes its nominal time.
Raw times are reported beside them.

There are two kernels, and each workload is scaled by the one that does the
same kind of work as its hottest layer:

- ``interpreter``: a Python loop over small numpy slices (as in the
  Gauss-Seidel smoother), Python string formatting and parsing (as in Matrix
  Market I/O) and a small sort with inverse;
- ``memory``: a sort with inverse and a weighted bincount over 1 M entries
  (as in canonicalizing millions of triplets), which the host's slowdowns
  hit less than they hit interpreted code.

Their inputs come from a fixed seed.
"""

from __future__ import annotations

import functools
import statistics
from time import perf_counter

import numpy as np

_rng = np.random.default_rng(20250800)
_ROWS = 1000
_indptr = np.arange(0, 5 * _ROWS + 1, 5)
_indices = _rng.integers(0, _ROWS, 5 * _ROWS)
_data = _rng.standard_normal(5 * _ROWS)
_rhs = _rng.standard_normal(_ROWS)
_small_keys = _rng.integers(0, 1 << 40, 200_000)


def interpreter_kernel():
    x = np.zeros(_ROWS)
    for i in range(_ROWS):
        lo, hi = _indptr[i], _indptr[i + 1]
        x[i] += (_rhs[i] - _data[lo:hi] @ x[_indices[lo:hi]]) / 10.0
    lines = [f"{i + 1} {j + 1} {float(v)!r}" for i, j, v in zip(_indices, _indices[::-1], _data)]
    np.unique(_small_keys, return_inverse=True)
    return x.sum() + sum(float(line.split()[2]) for line in lines)


@functools.cache
def _memory_inputs():
    # made on first use, so workloads scaled by the interpreter kernel do not
    # carry these 16 MB in their peak RSS
    rng = np.random.default_rng(20250801)
    return rng.integers(0, 1 << 40, 1 << 20), rng.standard_normal(1 << 20)


def memory_kernel():
    keys, weights = _memory_inputs()
    uniq, inverse = np.unique(keys, return_inverse=True)
    return np.bincount(inverse, weights=weights, minlength=uniq.size).sum()


# kernel -> (function, time of one pass on the reference host, seconds of
# operation time per pass); scaled times assume the reference host
KERNELS = {
    "interpreter": (interpreter_kernel, 0.021, 0.15),
    "memory": (memory_kernel, 0.075, 0.5),
}


def kernel_seconds(kernel):
    """Wall time of one pass of a reference kernel."""
    fn = KERNELS[kernel][0]
    start = perf_counter()
    value = fn()
    elapsed = perf_counter() - start
    if not np.isfinite(value):
        raise ArithmeticError(f"{kernel} kernel produced a non-finite value")
    return elapsed


class Probe:
    """Kernel bunches taken between the operations of one run.

    Before each operation the kernel runs once per ``interval`` seconds that
    the same operation took last time (at least once), so the bunches follow
    the run in proportion to where its time goes.
    """

    CLOSING_PASSES = 3

    def __init__(self, kernel):
        self.kernel = kernel
        _, self.nominal_s, self.interval = KERNELS[kernel]
        self.bunch_means = []
        self.passes = 0
        self.last = {}

    def _bunch(self, passes):
        self.bunch_means.append(statistics.fmean(kernel_seconds(self.kernel) for _ in range(passes)))
        self.passes += passes
        return len(self.bunch_means) - 1

    def before(self, name):
        """Run the bunch ahead of operation ``name``; returns its index."""
        return self._bunch(max(1, round(self.last.get(name, 0.0) / self.interval)))

    def after(self, name, seconds):
        self.last[name] = seconds

    def finish(self):
        """The bunch after the last operation."""
        self._bunch(self.CLOSING_PASSES)

    def scale(self, index):
        """Factor turning the raw time of the operation after bunch ``index`` into a scaled time."""
        return self.nominal_s / ((self.bunch_means[index] + self.bunch_means[index + 1]) / 2)

    def mean_kernel_s(self):
        return statistics.fmean(self.bunch_means)
