"""Machine speed, measured next to the ops whose times it corrects.

On a shared machine the speed of one core drifts by up to 2x within
minutes, and that drift moves every wall time of a run together.  The
benchmark therefore runs a fixed calibration after each op and reports
times in nominal units: an op's measured time divided by its speed
factor, the mean of the calibration samples just before and just after
it over their nominal time.  The calibration runs no ldk code, so a
change to ldk cannot move it.

* Ops in this process: plain Python of the same kind as ldk's (building
  and walking a tuple tree, counting in a dict, row operations on short
  integer lists, hashing rows).
* Ops and set-up in a fresh process: a fresh interpreter that imports
  numpy (``python -c "import numpy"``), which tracks process start-up
  and the loading of numpy's shared libraries and threads.

Measured on a shared 2-CPU Xeon VM: over three minutes, the median op
time of 10 s windows varied by 18-21% (coefficient of variation) while
its ratio to the Python loop varied by 4-7%.  For ``ldk check`` in a
child, over 100 s of interleaved samples, the median of 10-op windows
varied by 4.6% as a ratio to the numpy start, 8.9% to a start that only
loads the BLAS library, 11.3% to one that imports some of the standard
library, and 7.8% raw; in another 120 s, 5.1% to the numpy start and
13.1% to a bare ``python -S -c pass``, no better than raw (13.3%).  The
speed changes within a second, so the adjacent samples correct best:
over five 20 s runs the spread of the median corrected op time was 0.10
with them, 0.13 with the nearest 4 or 8, and 0.19 with one factor for
the whole run; calibrating after every other child op instead of every
op raised the window variation from 4.6% to 6.3%.
"""

from __future__ import annotations

import bisect
import random
import statistics
import subprocess
import sys
import time
from typing import List

# calibration times that define the nominal time scale
NOMINAL_S = 0.005
SPAWN_NOMINAL_S = 0.200


def _calibration() -> int:
    rng = random.Random(1)
    nodes: list = [(i,) for i in range(400)]
    while len(nodes) > 1:
        a = nodes.pop(rng.randrange(len(nodes)))
        b = nodes.pop(rng.randrange(len(nodes)))
        nodes.append((a, b))
    stack, counts = [nodes[0]], {}
    while stack:
        node = stack.pop()
        if len(node) == 1:
            counts[node[0] % 17] = counts.get(node[0] % 17, 0) + 1
        else:
            stack += node
    rows = [[rng.randint(-1, 1) for _ in range(40)] for _ in range(40)]
    for t in range(40):
        for i in range(t + 1, 40):
            q = rows[i][t]
            if q:
                rows[i] = [(x - q * y) % 1009 for x, y in zip(rows[i], rows[t])]
    return len({tuple(row) for row in rows}) + len(counts)


def _spawn() -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)


class Speed:
    def __init__(self, spawn: bool = False) -> None:
        """``spawn``: calibrate with a fresh interpreter that imports numpy."""
        self._calibrate = _spawn if spawn else _calibration
        self._nominal = SPAWN_NOMINAL_S if spawn else NOMINAL_S
        self.samples: List[float] = []
        self.times: List[float] = []  # when each sample started

    def sample(self, count: int = 1) -> float:
        """Run the calibration ``count`` times; the seconds it took."""
        start = time.perf_counter()
        for _ in range(count):
            began = time.perf_counter()
            self._calibrate()
            self.times.append(began)
            self.samples.append(time.perf_counter() - began)
        return time.perf_counter() - start

    @property
    def factor(self) -> float:
        """How many times slower than nominal the machine ran."""
        return statistics.median(self.samples) / self._nominal

    def factor_at(self, when: float) -> float:
        """The factor from the samples just before and after ``when``."""
        k = bisect.bisect(self.times, when)
        low = max(0, min(k - 1, len(self.samples) - 2))
        return statistics.mean(self.samples[low:low + 2]) / self._nominal
