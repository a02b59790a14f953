"""Host-speed calibration: a fixed pure-Python loop timed between runs.

The benchmark shares a few cores of a host with other machines' work,
and the host's speed drifts over minutes by a third and more, which
no statistic inside one run can remove.  So every timed run is
bracketed by two timings of :func:`chunk`, a loop that never touches
the simulator, and the run's host time is scaled by how much slower
or faster than :data:`REFERENCE_S` the loop ran around it.  A change to
the simulator moves the run and not the loop, so it still shows in
full; a change of the host's speed moves both and cancels.

The loop is made of what the simulator spends its time on: generator
resumes driven from a heap of timestamped events, attribute updates on
``__slots__`` objects found through a dict, and random draws.  It
frees everything it allocates before it returns.
"""

from __future__ import annotations

import heapq
import random
import time

#: Lines in the loop's table, about 20 MB of objects: the loop follows
#: the host's speed best when, like the simulator, it misses in the
#: processor's caches.  The benchmark reads its peak memory before the
#: first chunk, so this does not show in ``peak_rss_mb``.
_LINES = 1 << 17
#: Events the loop dispatches per chunk.
_EVENTS = 100_000

#: Median seconds of one :func:`chunk` on an Intel Xeon host (2 cores
#: shared with other machines, Python 3.11) at the time the benchmark's
#: bounds were set.  Host times are reported as seconds of a host on
#: which the loop takes this long.
REFERENCE_S = 0.25


class _Line:
    __slots__ = ("tag", "state", "hits")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.state = 0
        self.hits = 0


def chunk() -> float:
    """Run the calibration loop once; its host seconds (fixed work)."""
    rng = random.Random(2)
    lines = [_Line(i) for i in range(_LINES)]
    table = {i * 7: line for i, line in enumerate(lines)}

    def process():
        while True:
            key = yield
            line = table[(key % _LINES) * 7]
            line.hits += 1
            line.state = (line.state + key) & 3

    processes = [process() for _ in range(16)]
    for proc in processes:
        next(proc)
    pending = []
    started = time.perf_counter()
    for i in range(_EVENTS):
        heapq.heappush(pending, (i + rng.randrange(64), i, processes[i & 15]))
        if len(pending) > 64:
            proc = heapq.heappop(pending)[2]
            proc.send(rng.getrandbits(20))
    return time.perf_counter() - started


class HostClock:
    """Calibration timings taken between runs, one before the first.

    Call :meth:`tick` before the first run and after every run; then
    :meth:`scale` of run ``i`` is the factor that turns that run's host
    seconds into reference-host seconds.
    """

    def __init__(self) -> None:
        self.chunks = []

    def tick(self) -> None:
        self.chunks.append(chunk())

    def scale(self, i: int) -> float:
        """Reference seconds per host second around run ``i``."""
        around = (self.chunks[i] + self.chunks[i + 1]) / 2
        return REFERENCE_S / around
