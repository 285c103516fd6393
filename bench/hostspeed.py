"""A fixed reference computation that measures how fast the host runs right now.

The benchmark's host is a few cores of a shared machine, and its speed drifts
by tens of percent over minutes while other tenants come and go.  The same op
took 3.9 to 7.2 s within one four-minute run.  Medians over a run cannot
average that away, because one run sits inside one slow or fast spell.

The runner therefore times this kernel right before the first op and right
after every op.  An op's time is then rescaled by the speed of the kernel around
it (see ``normalized_seconds``).  The kernel is the benchmark's own frozen code,
so a change to examweight does not move it.  It mirrors the hot loop that
dominates every op: cyclic one-sided Jacobi rotations, a Python loop over
column pairs doing small numpy vector products.

Measured on a 2-core x86-64 VM, with the median op time over sliding 38 s
windows: in a noisy spell the windows' spread (IQR over median) fell from
0.20 to 0.05 on paper-9x53 and from 0.12 to 0.05 on tall-40x32.  In quiet
spells, with little drift to remove, the kernel's own noise raised it from
0.02 to 0.07 on paper-9x53 and from 0.007 to 0.012 on wide-20x53.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Seconds the kernel takes at the nominal host speed: about its median time
# on a 2-core x86-64 VM (Xeon at 2.1 GHz, Python 3.11, numpy 2.4), where it
# read 0.17-0.47 s.  Only a scale: normalized op times read as seconds at
# that speed.
NOMINAL_S = 0.33

_MATRIX = np.random.default_rng(12345).standard_normal((53, 20))
_SWEEPS = 4
_REPEATS = 25


def _jacobi_sweeps(m: np.ndarray) -> None:
    p = m.shape[1]
    for _ in range(_SWEEPS):
        for i in range(p - 1):
            for j in range(i + 1, p):
                aii = m[:, i] @ m[:, i]
                ajj = m[:, j] @ m[:, j]
                aij = m[:, i] @ m[:, j]
                if abs(aij) <= 1e-15 * np.sqrt(aii * ajj):
                    continue
                tau = (ajj - aii) / (2.0 * aij)
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                ci, cj = m[:, i].copy(), m[:, j].copy()
                m[:, i] = c * ci - s * cj
                m[:, j] = s * ci + c * cj


def reference_seconds() -> float:
    """Wall time of one run of the fixed reference kernel."""
    start = perf_counter()
    for _ in range(_REPEATS):
        _jacobi_sweeps(_MATRIX.copy())
    return perf_counter() - start


def normalized_seconds(op_s: float, ref_before_s: float, ref_after_s: float) -> float:
    """The op's time at nominal host speed: its wall time in units of the
    reference kernel timed around it, times ``NOMINAL_S``."""
    return op_s * NOMINAL_S / ((ref_before_s + ref_after_s) / 2.0)
