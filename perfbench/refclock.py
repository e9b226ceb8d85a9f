"""Timings in reference seconds: what an interval would take on a steady machine.

The machine the benchmark was built on (a 2-vCPU VM shared with other
tenants) changes speed under their load in two independent ways. Its CPU
runs Python code up to 1.7x slower in stretches of seconds to a
minute. Creating a file or directory costs from 0.07 to 0.7 ms of kernel
time, in stretches of tens of seconds, because the tenants share one
kernel and one file system. A 45-second run often sits inside one such
stretch, so wall times of the same code spread by a quarter from run to
run, and no averaging within a run removes that.

So every measured interval is followed by two fixed probes: a Python
workload of the same kind as the program's (regular expressions, small
objects, tuples, dicts, sorting, JSON) and the creation of ten
directories holding one small file each. The interval's user CPU time is
scaled by how much slower than nominal the CPU probes on either side of
it ran, its kernel time by the same for the file probes, and the rest of
its wall time (waiting) is kept as it is:

    reference = user * CPU_PROBE_S / cpu_probe
              + system * FILE_PROBE_S / file_probe
              + (wall - user - system)

On a machine where the probes take their nominal times, reference time is
wall time. Work the program adds or removes shows in full, because it is
measured as time and only the exchange rate comes from the probes.
"""

from __future__ import annotations

import gc
import json
import random
import re
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

# The probes' times on the reference machine: this VM when quiet.
CPU_PROBE_S = 0.012
FILE_PROBE_S = 0.001
FILE_PROBE_DIRS = 10

# A pure-arithmetic loop tracks the program's CPU time poorly (it slows less
# under other tenants' load); this mix of the program's kinds of work tracked
# its tag resolution to within 3% (IQR / median over 10-second windows)
# where the loop missed by 15%.
_RNG = random.Random(0)
_WORDS = ["".join(_RNG.choice("abcdefghij") for _ in range(8)) for _ in range(4000)]
_SPLIT = re.compile(r"([a-e]+)([f-j]*)")


class _Item:
    __slots__ = ("word", "key", "head")

    def __init__(self, word: str, key: tuple, head: str) -> None:
        self.word = word
        self.key = key
        self.head = head


@dataclass(frozen=True)
class Interval:
    wall: float  # seconds
    user: float
    system: float
    reference: float  # reference seconds

    @property
    def factor(self) -> float:
        """Reference seconds per wall second over this interval."""
        return self.reference / self.wall if self.wall > 0 else 1.0


def cpu_probe() -> float:
    """Wall time of a fixed Python workload."""
    start = time.perf_counter()
    items = []
    groups: dict[str, list] = {}
    for word in _WORDS:
        match = _SPLIT.match(word)
        item = _Item(word, tuple(ord(c) for c in word[:4]), match.group(1) if match else "")
        items.append(item)
        groups.setdefault(item.head, []).append(item)
    items.sort(key=lambda item: (item.key, item.word))
    json.dumps([[item.word, item.head] for item in items[:2000]])
    return time.perf_counter() - start


class ReferenceClock:
    """Measures intervals and converts them to reference seconds.

    The probe files stay under `scratch` until the caller removes it, so
    deleting them adds no kernel work to later intervals.
    """

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch
        self.probes = 0
        self.wall = 0.0  # wall seconds of every interval measured
        self.user = 0.0
        self.system = 0.0
        self.reference = 0.0  # the same in reference seconds
        self.cpu_probes: list[float] = []
        self.file_probes: list[float] = []
        self._last = self._probe()

    def _file_probe(self) -> float:
        """Directories and small files, in the program's mix of about one of each."""
        self.probes += 1
        directory = self.scratch / f"probe-{self.probes}"
        directory.mkdir(parents=True)
        start = time.perf_counter()
        for i in range(FILE_PROBE_DIRS):
            child = directory / str(i)
            child.mkdir()
            (child / "file").write_bytes(b"x" * 200)
        return time.perf_counter() - start

    def _probe(self) -> tuple[float, float]:
        # The probe's allocations must not set off a collection of the
        # program's heap, which would time the collector instead.
        gc.disable()
        try:
            cpu, files = cpu_probe(), self._file_probe()
        finally:
            gc.enable()
        self.cpu_probes.append(cpu)
        self.file_probes.append(files)
        return cpu, files

    def time(self, fn, *args, **kwargs):
        """Call fn; returns its result and the Interval it took."""
        wall0 = time.perf_counter()
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        result = fn(*args, **kwargs)
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        wall = time.perf_counter() - wall0
        before, after = self._last, self._probe()
        self._last = after
        cpu = (before[0] + after[0]) / 2
        files = (before[1] + after[1]) / 2
        user = usage1.ru_utime - usage0.ru_utime
        system = usage1.ru_stime - usage0.ru_stime
        reference = user * CPU_PROBE_S / cpu + system * FILE_PROBE_S / files + (wall - user - system)
        self.wall += wall
        self.user += user
        self.system += system
        self.reference += reference
        return result, Interval(wall, user, system, reference)

    def summary(self) -> dict:
        """Totals over every interval measured, and the probes' medians."""
        return {
            "wall_s": self.wall,
            "user_s": self.user,
            "system_s": self.system,
            "reference_s": self.reference,
            "cpu_probe_ms": statistics.median(self.cpu_probes) * 1000,
            "file_probe_ms": statistics.median(self.file_probes) * 1000,
        }
