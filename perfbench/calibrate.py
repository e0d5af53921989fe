"""Host-speed reference kernel.

The benchmark host is shared: over tens of seconds to minutes its speed
for object-heavy Python drifts by 10-25%, and in some stretches by 2x.
Medians over units absorb short bursts, not that drift.  A fixed kernel
that chases pointers through ~20 MB of small objects in shuffled order,
timed between units in the same process, slows down with it.  Timings
are reported scaled by ``REFERENCE_S / median(kernel samples of the
run)``, i.e. in seconds of a host on which the kernel takes
``REFERENCE_S``; the unscaled timings are printed beside them.  The
kernel imports nothing from the simulator, so no change to the program
can move it.

Measured on the 2-vCPU box over five noisy minutes, 20-second medians
of one fixed epidemic task spread by 17% (IQR/median) unscaled and by
10% scaled by a walk over this kernel's data; a cache-resident
heap/dict kernel only reached 12%.  Over ten seeds of the benchmark the
scaled spread of ``wall_s`` was 10-12% per workload, against 20-31%
unscaled (perfbench/NOTES.md has the table).
"""

from __future__ import annotations

import os
import random
import time

#: Kernel time of a calm 2-vCPU x86-64 host (Python 3.11), in seconds.
REFERENCE_S = 0.04


def _resident_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE")


class HostKernel:
    """The reference kernel and the memory its data occupies."""

    ENTRIES = 60_000
    PASSES = 1

    def __init__(self) -> None:
        before = _resident_bytes()
        rng = random.Random(12345)
        self._data = [
            (rng.random(), [i, float(i)], str(i)) for i in range(self.ENTRIES)
        ]
        self._order = list(range(self.ENTRIES))
        rng.shuffle(self._order)
        #: Resident bytes the kernel's data added to the process.
        self.footprint_bytes = _resident_bytes() - before

    def sample_s(self) -> float:
        """Seconds for one run of the kernel."""
        data = self._data
        acc = 0.0
        start = time.perf_counter()
        for _ in range(self.PASSES):
            for j in self._order:
                a, b, _ = data[j]
                acc += a + b[1]
        elapsed = time.perf_counter() - start
        if acc < 0:  # keep the work observable
            raise AssertionError
        return elapsed
