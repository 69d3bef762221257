"""Timing in reference-host seconds.

On a shared host, other tenants slow this process down by up to 2x, in
phases that last from seconds to minutes. The slowdown shows as CPU time, not
as time spent waiting for a core (process time equals wall time; steal and
run-queue wait stay near 0), so it comes from the host's shared caches, memory
and cores, and no statistic taken within one run can remove a phase that
covers the whole run.

So each timed sample is bracketed by a fixed reference loop, run just before
and just after it. Both slow down together: within one minute, the same
train-l1 ``train()`` call took 0.55 s and 1.11 s, while a short loop timed
next to it took 6.0 ms and 11.7 ms. A sample's scaled time is its wall time times ``REFERENCE_S`` over the mean of
the two reference times around it: the time the work would take on a host
where the reference takes ``REFERENCE_S``, which is what it takes on an
unloaded 2.0 GHz Xeon core. The reference is the benchmark's own code, so a
change to the package cannot move it.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

# the reference loop's wall time on an unloaded 2.0 GHz Xeon core
REFERENCE_S = 0.021

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((25, 24))
_B = _rng.standard_normal((24, 16))
_TIMES = sorted(_rng.uniform(0.0, 1.0, 4000).tolist())
_QUERIES = _rng.uniform(0.0, 1.0, 64).tolist()


class _Event:
    __slots__ = ("source", "destination", "timestamp")

    def __init__(self, source: int, destination: int, timestamp: float):
        self.source = source
        self.destination = destination
        self.timestamp = timestamp


_EVENTS = [_Event(int(s), int(d), float(t)) for s, d, t in zip(
    _rng.integers(0, 500, 20000), _rng.integers(0, 500, 20000),
    np.sort(_rng.uniform(0.0, 1.0, 20000)))]
_ADJACENCY: dict[int, list[int]] = {}
for _i, _ev in enumerate(_EVENTS):
    _ADJACENCY.setdefault(_ev.source, []).append(_i)
    _ADJACENCY.setdefault(_ev.destination, []).append(_i)
_LOOKUPS = list(zip(_rng.integers(0, 500, 200).tolist(), _rng.uniform(0.3, 1.0, 200).tolist()))


def _array_kernels() -> float:
    acc = 0.0
    for i in range(160):
        x = _A @ _B
        y = np.tanh(x) * 0.5 + x.sum(axis=0)
        acc += float(np.exp(-np.abs(y)).mean())
        hits = [bisect.bisect_left(_TIMES, q) for q in _QUERIES]
        rows = sorted(((h, _TIMES[h - 1] if h else 0.0) for h in hits), key=lambda r: -r[1])
        acc += rows[i % len(rows)][1]
    return acc


def _event_walk() -> int:
    found = 0
    for _ in range(4):
        for node, t in _LOOKUPS:
            idx = _ADJACENCY.get(node, [])
            k = bisect.bisect_left([_EVENTS[i].timestamp for i in idx], t)
            found += len([(_EVENTS[i].destination if _EVENTS[i].source == node
                           else _EVENTS[i].source, _EVENTS[i].timestamp)
                          for i in idx[max(0, k - 20):k]])
    return found


def _weighted_sampling() -> float:
    rng = np.random.default_rng(3)
    acc = 0.0
    for r in range(150):
        w = np.abs(_A[r % 25]) + 0.1
        picked = rng.choice(24, size=10, replace=False, p=w / w.sum())
        acc += float(np.tanh(_A[:, picked] @ _B[picked]).sum())
    return acc


def reference() -> float:
    """Run the reference loop and return its wall time.

    It mixes what the package spends its time on, in about equal parts: small
    matrix products and elementwise kernels on batch-sized arrays, lookups of
    a node's past events in a list of 20000 event objects, and weighted
    sampling without replacement.
    """
    t0 = time.perf_counter()
    _array_kernels()
    _event_walk()
    _weighted_sampling()
    return time.perf_counter() - t0


class ScaledTimer:
    """Times calls in wall seconds and in reference-host seconds.

    Consecutive calls share the reference run between them, so the reference
    adds one loop per timed call.
    """

    def __init__(self):
        self._before = reference()

    def time(self, fn, *args, **kwargs):
        """Return ``(fn(...), wall seconds, scaled seconds)``."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        after = reference()
        scaled = wall * REFERENCE_S / ((self._before + after) / 2)
        self._before = after
        return out, wall, scaled
