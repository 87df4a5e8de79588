"""Environment record and a fixed reference kernel for host drift."""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_blas_threads():
    """Pin BLAS to one thread; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment():
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


# time of one SpeedSampler kernel on an unloaded 2-core Intel Xeon
# (Python 3.11, numpy 2.4); drift-corrected times are rescaled to it
NOMINAL_KERNEL_S = 4e-4
# log-log slope of the program's time against the kernel's time, fitted
# over 45 s of alternating sweep-shaped and search-shaped work and kernel
# runs on that host (0.77 for both): the kernel reacts more strongly to
# the host's slowdowns than the program does
SENSITIVITY = 0.77
# samples in the running median that smooths the speed
SMOOTH = 5
# least gap between two samples taken between operations, in seconds
MIN_GAP = 0.05
# gap between two samples taken inside a long operation, in seconds
PERIOD = 0.25
# kernel runs in the reference time recorded once per run
REFERENCE_REPS = 25


class SpeedSampler:
    """Samples the host's current speed while a workload runs.

    On a shared host the speed can drift by 2x within seconds, in CPU
    time as much as in wall time.  A sample times a fixed kernel shaped
    like the program's own work (``kernel_s``) three times and keeps the
    median, so that cache misses left by the program do not count.
    Samples are taken between operations (``sample``) and, while the
    sampler is entered, every PERIOD seconds inside long operations.
    ``nominal_s`` turns an interval of wall time into the time it would
    have taken at NOMINAL_KERNEL_S, scaled by SENSITIVITY.
    """

    def __init__(self):
        import numpy as np

        self.samples = []  # (perf_counter at sample, kernel seconds)
        self._steps = None  # (samples used, step edges, speed per step)
        rng = np.random.default_rng(0)
        self._lam = np.linspace(1e-9, 0.5, 1700)
        psi = rng.standard_normal((4, 2, 2, 2, 2)) @ (1.0, 1.0j)
        self._psi = psi / np.linalg.norm(psi)
        self._mask = 0.6 ** np.bitwise_count(np.arange(4)[:, None] ^ np.arange(4)[None, :])

    @staticmethod
    def _entropy(x):
        # a frozen copy of the program's elementwise binary entropy
        import numpy as np

        arr = np.asarray(x, dtype=float)
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValueError("argument outside [0, 1]")
        out = np.zeros_like(arr)
        inner = (arr > 0.0) & (arr < 1.0)
        xi = arr[inner]
        out[inner] = -xi * np.log2(xi) - (1.0 - xi) * np.log1p(-xi) / np.log(2.0)
        return float(out) if arr.ndim == 0 else out

    def kernel_s(self):
        """One run of a fixed kernel shaped like the program's work: an
        entropy scan over a weight grid, scalar entropy steps, and two
        erasure-pattern block entropies."""
        import numpy as np

        t0 = time.perf_counter()
        self._entropy(self._lam)
        lam = 0.1
        for _ in range(12):
            lam = 0.05 + 0.5 * self._entropy(lam) * 0.4
        for perm in ((0, 1, 2, 3), (0, 2, 3, 1)):
            mat = np.transpose(self._psi, perm).reshape(16, 2)
            rho = (mat @ mat.conj().T) * np.kron(np.ones((4, 4)), self._mask)
            evals = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
            self._entropy(np.clip(evals, 1e-300, 1.0))
        return time.perf_counter() - t0

    def reference_s(self):
        """Median time of the kernel: recorded once per run, so that the
        host's drift across a set of runs shows."""
        return statistics.median(self.kernel_s() for _ in range(REFERENCE_REPS))

    def __enter__(self):
        """Also sample every PERIOD seconds, from a SIGALRM handler
        that runs between bytecodes, so that long operations are covered."""
        import signal

        self._previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def sample(self, force=True):
        """Record one speed sample, unless ``force`` is false and the last
        one is less than MIN_GAP seconds old."""
        now = time.perf_counter()
        if force or not self.samples or now - self.samples[-1][0] >= MIN_GAP:
            self.samples.append((now, statistics.median(self.kernel_s() for _ in range(3))))

    def nominal_s(self, start, end):
        """The time [start, end] would have taken at nominal host speed.

        The speed is a step function of time: each sample holds from the
        midpoint with its predecessor to the midpoint with its successor,
        after a running median over SMOOTH samples (one preempted sample
        can be 500x slow).  The interval's wall time is integrated
        against it, so an operation that spans a change of host speed is
        corrected part by part.
        """
        import numpy as np

        if self._steps is None or self._steps[0] != len(self.samples):
            times = np.array([t for t, _ in self.samples])
            kernel = np.array([k for _, k in self.samples])
            padded = np.pad(kernel, SMOOTH // 2, mode="edge")
            smooth = np.median(np.lib.stride_tricks.sliding_window_view(padded, SMOOTH), axis=1)
            self._steps = (len(self.samples), (times[1:] + times[:-1]) / 2,
                           (NOMINAL_KERNEL_S / smooth) ** SENSITIVITY)
        _, edges, speed = self._steps
        cuts = edges[(edges > start) & (edges < end)]
        bounds = np.concatenate(([start], cuts, [end]))
        first = np.searchsorted(edges, start, side="right")
        return float(np.sum(np.diff(bounds) * speed[first:first + len(cuts) + 1]))
