"""Host-speed calibration: times in seconds at a fixed reference speed.

On a small shared cloud VM (2 vCPUs) the CPU speed the benchmark gets drifts
by 15-25% within seconds, in CPU time as much as in wall time, so a raw pass
time mostly measures the neighbours.  A fixed calibration loop that never
touches fracdim cuts every timed pass into segments of about half a second,
and a segment's time is divided by the mean of the two calibrations on
either side of it and multiplied by ``REF_S``.  The sum is the pass's time
in seconds on a host where the calibration loop takes ``REF_S``: a change to
fracdim moves it, a change in the host's speed during the run mostly does
not.  Raw times are kept beside the scaled ones in the run record.
"""

import contextlib
import functools
import time

import numpy as np

from spans import patched

# Seconds the calibration loop takes on the host the benchmark was defined
# on, so that scaled times read close to raw ones there.
REF_S = 0.07

_POINTS = np.random.default_rng(20121).random((1 << 16, 2))


def calibration_s() -> float:
    """Wall time of a fixed mix of the work fracdim does: flooring points to
    cells, packing and de-duplicating the cell keys, sorting, and interpreter
    loops.  Its arrays fit in cache: a calibration on larger arrays tracked
    the host no better, and its speed differed more from one process to the
    next, which no scaling within a run can remove."""
    t0 = time.perf_counter()
    for _ in range(4):
        cells = np.floor(_POINTS * 1024).astype(np.int64)
        np.unique(cells[:, 0] * 4096 + cells[:, 1])
        np.sort(_POINTS[:, 0])
        acc = 0
        for i in range(20000):
            acc += i * i
    return time.perf_counter() - t0


class Clock:
    """Times a block in raw and in reference seconds, in segments: a segment
    ends at the return of a tick function once it has lasted ``MIN_SEGMENT``
    seconds, and at the end of the block.  Each segment is scaled by the
    mean of the calibrations on either side of it.  Calibrations fall
    between segments, so their own time is in neither total."""

    MIN_SEGMENT = 0.4

    def __init__(self):
        self.last = calibration_s()
        self.raw = self.scaled = 0.0
        self._segment_start = 0.0

    def _cut(self, force: bool = False):
        segment = time.perf_counter() - self._segment_start
        if segment < self.MIN_SEGMENT and not force:
            return
        after = calibration_s()
        self.raw += segment
        self.scaled += segment * REF_S / ((self.last + after) / 2)
        self.last = after
        self._segment_start = time.perf_counter()

    def _ticking(self, fn):
        @functools.wraps(fn)
        def ticking(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._cut()
            return result

        return ticking

    @contextlib.contextmanager
    def timing(self, ticks=()):
        """Time the block; ``ticks`` are ``(module, attribute)`` functions
        wrapped for the block and restored afterwards.  ``raw`` and
        ``scaled`` hold the block's totals when it ends."""
        self.raw = self.scaled = 0.0
        with patched((module, attr, self._ticking) for module, attr in ticks):
            self._segment_start = time.perf_counter()
            yield self
            self._cut(force=True)
