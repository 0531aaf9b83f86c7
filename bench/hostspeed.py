"""Host speed, read from a fixed kernel timed on each side of every operation.

On a VM that shares its cores with other tenants, the same code runs up
to 1.6x slower for stretches of a second to several minutes, and every
kind of work slows alike.  The benchmark times ``kernel`` just before and
just after each operation, and reports the operation's time scaled by
``REFERENCE_S`` over the mean of those two readings: the time it would
take on a host where the kernel takes ``REFERENCE_S``.  The kernel is
pure-Python integer work and small numpy eigen-solves, the two kinds of
work the program does, and calls no loorkit code, so a change to the
program moves the scaled times and leaves the kernel's alone.
"""

from __future__ import annotations

import time

import numpy as np

# About the kernel's median time on the 2-core x86-64 VM the benchmark was
# built on, so that scaled times read close to wall times on a quiet host.
REFERENCE_S = 0.7e-3

_rng = np.random.default_rng(0)
_MATRICES = [a + a.T for a in (_rng.standard_normal((8, 8)) for _ in range(3))]


def kernel() -> int:
    s = 0
    x = (1 << 90) - 1
    for i in range(3000):
        s ^= (x >> (i & 63)) & (i * 2654435761)
    for _ in range(3):
        for m in _MATRICES:
            np.linalg.eigh(m)
            m @ m
    return s


def probe() -> float:
    """Wall seconds of one ``kernel`` call, after an untimed one.

    The untimed call refills the caches an operation has just evicted: after
    a CLI subprocess a single cold call took about twice as long.
    """
    kernel()
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Stopwatch:
    """Times the block it wraps, with a host-speed probe on each side.

    ``seconds`` is the block's wall time and ``host`` the mean of the two
    probes.
    """

    def __enter__(self):
        self._before = probe()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self._t0
        self.host = (self._before + probe()) / 2


def scaled(seconds: float, host: float) -> float:
    return seconds * REFERENCE_S / host
