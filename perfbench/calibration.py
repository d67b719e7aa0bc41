"""Reference kernel that measures how fast the machine runs right now.

The benchmark host is shared: the same op, on the same inputs, ran
anywhere from 1x to 2x its fastest time within a minute, and CPU time
followed wall time, so the slowdown is in the processor, not in waiting.
Every op is therefore bracketed by this fixed kernel, and the reported
times are rescaled to the speed at which the kernel takes
``REFERENCE_KERNEL_S``.  The kernel uses numpy and scipy only, never
phasebal, so no change to the program can change it.  It mixes the three
kinds of work phasebal does: small complex solves in a Python loop (the
power flow), rank-one updates of a dense tableau (the simplex) and plain
Python bookkeeping (the GA cache and the oracle walk).
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import lu_factor, lu_solve

# Kernel time on the 2-vCPU Intel Xeon (2.1 GHz) host the benchmark was
# sized on, between its fast (0.08 s) and slow (0.12 s) phases.
REFERENCE_KERNEL_S = 0.1

_rng = np.random.default_rng(0)
_LU = lu_factor(_rng.standard_normal((36, 36)) + 1j * _rng.standard_normal((36, 36))
                + 40.0 * np.eye(36))
_TABLEAU = _rng.standard_normal((150, 400))
_S = np.full(36, 0.1 + 0.05j)


def reference_kernel() -> float:
    """Wall time of one pass of the fixed kernel, in seconds."""
    started = time.perf_counter()
    x = np.ones(36, dtype=complex)
    for _ in range(2400):
        x = lu_solve(_LU, np.conj(_S / x) + 1.0)
    tab = _TABLEAU.copy()
    for k in range(240):
        tab -= np.outer(tab[:, k % 400], tab[k % 150]) * 1e-4
    seen: dict[tuple, int] = {}
    for k in range(80000):
        key = (k % 211, k % 7)
        seen[key] = seen.get(key, 0) + 1
    return time.perf_counter() - started
