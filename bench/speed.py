"""The machine's current speed, from fixed pieces of work.

The speed of this machine's CPUs swings up to twofold for seconds to
minutes, and the guest does not see it: CPU time tracks wall time and no
steal time is reported.  Every time the benchmark reports is therefore
taken next to a reference piece of work and scaled by that work's time at
a reference speed over its measured time (see scale).  Requests are
scaled by speed_kernel, which does work shaped like the library's
(CAL_REF_MS); set-up, which is mostly starting an interpreter and
importing, by the start of a bare interpreter (START_REF_MS).  A change
to the library moves the scaled figures; a change in the machine's speed
mostly does not.
"""

from time import perf_counter

import numpy as np

# speed_kernel's time, in ms, on the machine the figures are scaled to:
# about its fastest on the 2-vCPU Xeon the baseline was recorded on
CAL_REF_MS = 2.2
# `python -c pass`, spawned and waited for, in ms, at the same speed
START_REF_MS = 45.0

_A = np.exp(2j * np.pi * np.arange(36).reshape(6, 6) / 37) / 6
_P = np.eye(2, dtype=complex)


def speed_kernel() -> float:
    """Seconds taken by work shaped like the library's, about 2-4 ms.

    Tuple and dict bookkeeping, then small complex matrix and Kronecker
    products.  It calls nothing in choi_sqpt, so only the machine's speed
    moves it.
    """
    start = perf_counter()
    seen: dict[tuple, int] = {}
    for i in range(1500):
        key = (i % 7, i % 5, tuple(sorted((i * 3 % 11, i % 4))))
        seen[key] = seen.get(key, 0) + 1
    acc = _A
    for _ in range(40):
        acc = _A @ acc @ _A.conj().T + np.kron(_P, acc[:3, :3])
        acc = acc / np.trace(acc)
    return perf_counter() - start


def scale(seconds: float, before: float, after: float, ref_ms: float = CAL_REF_MS) -> float:
    """A time measured between two reference times, at the reference speed."""
    return seconds * ref_ms * 1e-3 * 2 / (before + after)
