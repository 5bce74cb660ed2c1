"""Reference kernel: fixed work timed between operations, so that each
operation's time can be read against the machine's speed at that moment.

The machine the benchmark runs on is shared, and the share of time that it
runs slowly moves over seconds and minutes, by up to 2x. A call of 10 to 300
ms averages over those moments, so its time moves with them. The kernel is
the same kind of work as the program's eigensolver (complex rotations on a
small numpy array, element by element), but it is written here and never
changes with the program. Its mean time near an operation measures how slow
the machine was then; dividing by it, and multiplying by NOMINAL_MS, gives
the operation's time at one fixed machine speed.
"""

from __future__ import annotations

import math

import numpy as np

# The kernel's mean time on the machine the baselines were measured on
# (2 vCPUs, Intel Xeon) in a quiet spell. It only scales the figures.
NOMINAL_MS = 3.0
EVERY_S = 0.05  # at most one kernel call per this many seconds
WINDOW_S = 1.0  # kernel calls within this many seconds of an operation count

_N = 8
_SWEEPS = 6
_G = np.random.default_rng(0).standard_normal((_N, 2 * _N))
_A0 = (_G[:, :_N] + 1j * _G[:, _N:]) + (_G[:, :_N] + 1j * _G[:, _N:]).conj().T


def kernel() -> complex:
    """Six sweeps of pairwise rotations over a fixed 8x8 Hermitian array."""
    a = _A0.copy()
    for _ in range(_SWEEPS):
        for p in range(_N - 1):
            for q in range(p + 1, _N):
                apq = a[p, q]
                r = abs(apq) + 1e-300
                tau = (a[q, q].real - a[p, p].real) / (2.0 * r)
                t = 1.0 / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                sp = (t * c) * (apq / r)
                spc = sp.conjugate()
                for i in range(_N):
                    cp, cq = a[i, p], a[i, q]
                    a[i, p] = c * cp - spc * cq
                    a[i, q] = sp * cp + c * cq
                for j in range(_N):
                    rp, rq = a[p, j], a[q, j]
                    a[p, j] = c * rp - sp * rq
                    a[q, j] = spc * rp + c * rq
    return a[0, 0]


def local_mean(at, seconds, times) -> np.ndarray:
    """Mean kernel seconds within WINDOW_S of each of ``times``.

    ``at`` are the (sorted) times of the kernel calls and ``seconds`` their
    durations; where no call lies in a window, the next call (or the last)
    counts.
    """
    at, times = np.asarray(at), np.asarray(times)
    total = np.concatenate([[0.0], np.cumsum(seconds)])
    lo = np.searchsorted(at, times - WINDOW_S)
    hi = np.searchsorted(at, times + WINDOW_S)
    empty = hi == lo
    nxt = np.minimum(lo, len(at) - 1)
    lo = np.where(empty, nxt, lo)
    hi = np.where(empty, nxt + 1, hi)
    return (total[hi] - total[lo]) / (hi - lo)
