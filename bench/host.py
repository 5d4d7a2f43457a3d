"""Host facts: cores and pinning, fingerprint, and the weather probe."""

from __future__ import annotations

import os
import platform
import statistics
import sys
from typing import Dict, Optional, Sequence, Tuple

#: What one spin of ``calibrate.py`` takes beside a busy server on the
#: host the sizes were chosen on, in its fast state; time-based metrics
#: are scaled to this host speed.
SPIN_REFERENCE_MS = 0.65


#: Cores this process may use, read once before any pinning.
_CORES = sorted(os.sched_getaffinity(0))
_GENERATOR_CORE = _CORES[0]
#: On a one-core host nothing is pinned and both share the core.
_SERVER_CORE = _CORES[1] if len(_CORES) >= 2 else _CORES[0]


def connections() -> int:
    """Concurrent connections (one session each): ``min(nproc, 2)``."""
    return min(len(_CORES), 2)


def server_core() -> Optional[int]:
    """The core the server is pinned to, or None on a one-core host."""
    return _SERVER_CORE if len(_CORES) >= 2 else None


def pin_generator() -> None:
    """Pin this process (the load generator) away from the server's core."""
    if len(_CORES) >= 2:
        os.sched_setaffinity(0, {_GENERATOR_CORE})


def weather(
    spin: Sequence[Tuple[float, float]],
    windows: Sequence[Tuple[float, float]],
) -> float:
    """How slow the server's core ran inside ``windows``, as a multiple
    of the reference host.

    ``spin`` is the calibrator's samples, ``(perf_counter, ms)``.  The
    mean, not the median: a burst that slows the core fourfold for half
    a second slows the server by as much, and belongs in the report.
    """
    inside = [
        ms for at, ms in spin
        if any(start <= at <= end for start, end in windows)
    ]
    if not inside:
        raise RuntimeError("no calibrator sample inside the timed windows")
    return statistics.fmean(inside) / SPIN_REFERENCE_MS


def fingerprint() -> Dict[str, object]:
    return {
        "cores": len(_CORES),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "kernel": platform.release(),
        "machine": platform.machine(),
    }
