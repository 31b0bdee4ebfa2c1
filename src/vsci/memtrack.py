"""Live-tensor accounting for the constant-memory contract.

The live count is in iterate-sized buffers. The fixed-point engine registers
every array it retains; an array holding several iterates, such as one of the
two (m, N) Anderson rings, counts as that many. A weakref finalizer takes the
array's count off again the moment CPython drops the last reference. The
rings are allocated once per solve, so the peak live count reaches a plateau
after a few iterations and is independent of how many iterations a solve
runs - which is exactly what the tests assert.

Disabled by default (zero overhead beyond one if-check).
"""

from __future__ import annotations

import weakref

_enabled = False
_live = 0
_peak = 0


def enable() -> None:
    global _enabled
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


def reset() -> None:
    global _live, _peak
    _live = 0
    _peak = 0


def _drop(count):
    global _live
    _live -= count


def track(arr, count=1):
    """Register an array holding `count` iterate-sized buffers as live; returns it unchanged."""
    global _live, _peak
    if _enabled:
        _live += count
        _peak = max(_peak, _live)
        weakref.finalize(arr, _drop, count)
    return arr


def live() -> int:
    return _live


def peak() -> int:
    return _peak
