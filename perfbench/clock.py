"""The benchmark's only clock and resource readings.

Every wall-clock read in the benchmark goes through :func:`now`, so the
linter's DET002 rule (no wall-clock reads outside telemetry code) has
exactly one place to look at, and its suppression below is the only one
the benchmark carries.

Hosts shared with other tenants change speed by 10-25 % over seconds to
minutes, far more than the changes the benchmark must detect.  So each
timed segment is also reported in *reference seconds*: its wall time
scaled by how much slower than :data:`PROBE_REFERENCE_S` a fixed
pure-Python probe ran just before and just after it.  The probe runs
none of the program's code, so a change to the program moves reference
seconds exactly as it moves wall seconds.
"""

from __future__ import annotations

import os
import resource
import statistics
import struct
import time
from typing import Tuple


def now() -> float:
    """Monotonic wall-clock seconds (``time.perf_counter``)."""
    return time.perf_counter()  # repro-lint: ignore[DET002]


def peak_rss_mb() -> float:
    """Peak resident set size in MiB of this process or of its largest
    finished child, whichever is larger (``ru_maxrss`` is KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# -- host-speed calibration ----------------------------------------------------

#: Wall seconds one probe takes on a quiet 2-vCPU host (Python 3.11).
PROBE_REFERENCE_S = 0.0025
#: Probe repeats per second of the segment just timed, and their floor
#: and cap: longer segments get a longer, steadier probe.
PROBE_REPEATS_PER_S = 20
PROBE_REPEATS_MIN = 3
PROBE_REPEATS_MAX = 15


class _Node:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: int):
        self.key = key
        self.weight = weight

    def score(self) -> int:
        return self.key * 3 + self.weight


def _probe_work() -> int:
    """Object allocation, attribute access, dict stores and a keyed
    sort: the operations the simulator and the analyzer spend time on."""
    table = {}
    nodes = []
    for i in range(2500):
        node = _Node(i % 97, i % 13)
        table[i % 251] = node.score()
        nodes.append((node.weight, node.key, node))
    nodes.sort(key=lambda entry: (entry[0], entry[1]))
    return sum(table.values()) + len(nodes)


def _probe_median(repeats: int) -> float:
    times = []
    for _ in range(repeats):
        started = now()
        _probe_work()
        times.append(now() - started)
    return statistics.median(times)


def probe_s(repeats: int, cpus: int = 1) -> float:
    """Median wall seconds of ``repeats`` runs of the probe, averaged
    over ``cpus`` processes probing at the same time."""
    if cpus == 1:
        return _probe_median(repeats)
    readers, children = [], []
    for _ in range(cpus - 1):
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read)
            os.write(write, struct.pack("d", _probe_median(repeats)))
            os._exit(0)
        os.close(write)
        readers.append(read)
        children.append(pid)
    times = [_probe_median(repeats)]
    for read, pid in zip(readers, children):
        with os.fdopen(read, "rb") as handle:
            times.append(struct.unpack("d", handle.read(8))[0])
        os.waitpid(pid, 0)
    return sum(times) / len(times)


class Stopwatch:
    """Times consecutive segments of a pass, in wall and in reference
    seconds; probe time falls between segments and counts in neither."""

    def __init__(self, cpus: int = 1) -> None:
        self.cpus = cpus
        self.wall_s = 0.0
        self.reference_s = 0.0
        self._probe = probe_s(PROBE_REPEATS_MAX, cpus)
        self._mark = now()

    def lap(self) -> Tuple[float, float]:
        """End the current segment; returns its (wall, reference) seconds
        and starts the next one."""
        wall = now() - self._mark
        repeats = min(PROBE_REPEATS_MAX,
                      max(PROBE_REPEATS_MIN, round(wall * PROBE_REPEATS_PER_S)))
        probe = probe_s(repeats, self.cpus)
        reference = wall * PROBE_REFERENCE_S / ((self._probe + probe) / 2)
        self.wall_s += wall
        self.reference_s += reference
        self._probe = probe
        self._mark = now()
        return wall, reference
