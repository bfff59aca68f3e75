"""Machine-speed calibration for the benchmark's timings.

On a shared host the speed of the same Python code drifts by tens of percent
within a minute, and every timed operation drifts with it.  The benchmark
therefore times this fixed kernel between operations and scales every time
it reports to a reference speed: a time ``t`` measured while the kernel took
``c`` seconds is reported as ``t * REFERENCE_S / c``.  The kernel does not
use ``wtc``, so a change to the engine never changes the scale; it mixes the
kinds of work the engine does (JSON decoding, integer row reduction, small
frozen dataclasses, tuple hashing and dict updates).

``REFERENCE_S`` is a fixed constant near the kernel's typical time on the
host the benchmark was tuned on (2 vCPUs at 2.0 GHz, Python 3.11; the kernel
took 1.7 to 3.3 ms there depending on the load from other tenants), so
scaled times read as milliseconds on that host at a fixed load.  Each time
is scaled by the median of the two samples before and the two after it.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass

REFERENCE_S = 2.5e-3
WINDOW = 2  # samples on each side of an operation that set its scale

_DOC = json.dumps({
    "matrix": [[(i * 7 + j * 3) % 11 - 5 for j in range(12)] for i in range(12)],
    "names": [f"g{i}" for i in range(40)],
})


@dataclass(frozen=True)
class _Entry:
    row: int
    col: int
    value: int


def _row_reduce(matrix):
    rows = [list(r) for r in matrix]
    n = len(rows)
    r = 0
    for c in range(len(rows[0])):
        pivot = None
        for i in range(r, n):
            if rows[i][c] and (pivot is None or abs(rows[i][c]) < abs(rows[pivot][c])):
                pivot = i
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(n):
            if i != r and rows[i][c]:
                q = rows[i][c] // rows[r][c]
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == n:
            break
    return rows


def kernel():
    doc = json.loads(_DOC)
    acc = {}
    for shift in range(6):
        rows = _row_reduce([[v + shift for v in row] for row in doc["matrix"]])
        entries = {_Entry(i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row) if v}
        for e in entries:
            acc[(e.row, e.col)] = acc.get((e.row, e.col), 0) + e.value % 97
    return len(json.dumps(sorted(acc.items()))) + len(doc["names"])


class Calibrator:
    """Kernel timings taken during a run, in the order they were taken."""

    def __init__(self):
        self.samples = []

    def sample(self, times=1):
        clock = time.perf_counter
        for _ in range(times):
            start = clock()
            kernel()
            self.samples.append(clock() - start)
        return len(self.samples) - 1

    def scale(self, index):
        """Factor for a time measured just after sample ``index``."""
        window = self.samples[max(0, index - WINDOW + 1):index + WINDOW + 1]
        return REFERENCE_S / statistics.median(window)
