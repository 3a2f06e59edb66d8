"""Fixed reference kernels that measure how fast the machine runs now.

The benchmark runs on shared machines whose speed drifts by tens of
percent from one minute to the next.  Timing a kernel between solves and
dividing each solve's time by it removes most of that drift.  The kernels
are frozen copies of the two instruction mixes the workloads spend their
time in: radix-2 butterflies on int64 numpy batches (the NTT path) and
Kronecker-packed big-integer products (the p > 2**31 path).  The drift
does not slow both alike, so each workload is divided by the mix it runs.
They import nothing from thpoly, so a change to the library never moves
them.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

_P_SMALL = 2013265921           # 15 * 2**27 + 1
_P_LARGE = (1 << 61) - 1
_BATCH = np.random.default_rng(0).integers(0, _P_SMALL, (32, 1024))
_TWIDDLES = [np.arange(1, half + 1, dtype=np.int64) * 40503 % _P_SMALL
             for half in (1 << k for k in range(10))]
_DIGITS = [int(v) for v in np.random.default_rng(1).integers(0, 1 << 60, 128)]


def _butterflies(x: np.ndarray) -> np.ndarray:
    batch, size = x.shape
    p = _P_SMALL
    for tw in _TWIDDLES:
        half = len(tw)
        x = x.reshape(batch, -1, 2 * half)
        lo = x[:, :, :half]
        hi = x[:, :, half:] * tw % p
        x = np.concatenate(((lo + hi) % p, (lo - hi) % p), axis=2)
    return x.reshape(batch, size)


def _kronecker(a: list[int]) -> list[int]:
    w = ((len(a) * (_P_LARGE - 1) ** 2).bit_length() + 7) // 8
    packed = int.from_bytes(b"".join(v.to_bytes(w, "little") for v in a), "little")
    raw = (packed * packed).to_bytes(2 * w * len(a), "little")
    return [int.from_bytes(raw[i * w:(i + 1) * w], "little") % _P_LARGE
            for i in range(2 * len(a) - 1)]


def _median_time(fn, arg, reps: int, samples: int = 5) -> float:
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        for _ in range(reps):
            fn(arg)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


KERNELS = {
    "butterflies": (_butterflies, _BATCH, 2),
    "kronecker": (_kronecker, _DIGITS, 20),
}

# Round figures for the kernels' times on the machine the benchmark was
# defined on (2-core Xeon VM, Python 3.11, numpy 2.4).  A time divided by
# a reference and multiplied by the same kernels' nominal time reads as
# seconds at that machine's speed, whatever the speed of the machine now.
NOMINAL_SECONDS = {"butterflies": 0.010, "kronecker": 0.005}


def kernel_seconds() -> dict[str, float]:
    """Each kernel's time, the median of five samples so that a short
    burst of load does not decide it; about 0.1 s in all."""
    return {name: _median_time(*kernel) for name, kernel in KERNELS.items()}


def geomean(times: dict[str, float], kernels) -> float:
    """Geometric mean of ``times`` over the named kernels: the reference
    of a workload that runs their instruction mixes."""
    return math.prod(times[name] for name in kernels) ** (1 / len(kernels))
