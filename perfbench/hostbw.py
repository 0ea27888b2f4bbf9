"""STREAM-style host bandwidth ceiling: a NumPy copy and an in-place triad.

Each array is at least four times the last-level cache the host reports,
so both kernels stream from memory.  Bytes follow the STREAM convention
(every element read or written once; write-allocate traffic not counted).
The copy figure is the denominator of every ``*.host_bw_frac``: a collide
or a streaming pass reads one population array and writes another, which
is the copy's access pattern.
"""

from __future__ import annotations

import glob
import os
from time import perf_counter

import numpy as np

#: Elements per triad chunk: the scaled operand stays in the L2 cache, so
#: the chunked triad moves exactly the three STREAM array passes.
CHUNK = 1 << 16
REPS = 5


def llc_bytes() -> int:
    """Size of the largest (last-level) cache of CPU 0, from sysfs."""
    best = (0, 0)
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(index, "size")) as fh:
                text = fh.read().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        size = int(text.rstrip("KMG")) * scale
        best = max(best, (level, size))
    if best[1]:
        return best[1]
    size = os.sysconf("SC_LEVEL3_CACHE_SIZE") if hasattr(os, "sysconf") else 0
    return int(size) if size and size > 0 else 32 << 20


def measure(array_bytes: int | None = None) -> dict:
    """Best-of-``REPS`` copy and triad bandwidth in GB/s, plus the sizes."""
    llc = llc_bytes()
    if array_bytes is None:
        array_bytes = 4 * llc
    n = -(-array_bytes // 8)
    a = np.empty(n)
    b = np.empty(n)
    a.fill(1.0)
    b.fill(2.0)
    tmp = np.empty(CHUNK)
    copy_s = triad_s = float("inf")
    for _ in range(REPS):
        t0 = perf_counter()
        np.copyto(b, a)
        copy_s = min(copy_s, perf_counter() - t0)
        t0 = perf_counter()
        for lo in range(0, n, CHUNK):
            hi = min(lo + CHUNK, n)
            t = tmp[:hi - lo]
            np.multiply(a[lo:hi], 3.0, out=t)
            np.add(b[lo:hi], t, out=b[lo:hi])
        triad_s = min(triad_s, perf_counter() - t0)
    return {"copy_gbs": 2 * 8 * n / copy_s / 1e9,
            "triad_gbs": 3 * 8 * n / triad_s / 1e9,
            "cores": os.cpu_count() or 1,
            "llc_mb": llc / 2**20,
            "stream_array_mb": 8 * n / 2**20,
            "numpy": np.__version__}
