"""Host-speed reference used to normalize the end-to-end wall times.

A shared 2-vCPU x86-64 VM measured for this benchmark ran at full speed or up
to about 1.9x slower, in phases lasting from seconds to minutes, and a phase
slowed every process alike. Raw wall times of whole runs therefore differ by that factor,
which is far wider than any regression bound. A fixed pure-Python routine is
timed right before every measured operation, in the process that starts or
runs it; an operation's normalized time is its wall time scaled by
REFERENCE_MS over the median routine time of the same quarter-second slot of
the run. Short slots follow brief slowdowns that would otherwise land in the
90th percentile; the median damps the routine's own jitter. Interleaved on
that VM, study-scale operations over this routine held within about 4%
while the raw times moved by 1.9x. Raw wall times are recorded and printed
beside every normalized figure.
"""
from __future__ import annotations

import statistics
from time import perf_counter

# Fixed scale: normalized times read as wall times on a host where the routine
# takes this long. On that VM (Python 3.11) the routine's median per run ranged
# from 0.34 to 0.64 ms.
REFERENCE_MS = 0.5
SLOT_S = 0.25


def sample_ms() -> float:
    """Wall time of one fixed routine of dict, str and sort work, in ms."""
    t = perf_counter()
    d = {}
    for i in range(3000):
        d[i % 97] = str(i)
    sorted(d.values())
    return (perf_counter() - t) * 1e3


def normalize(walls: list[float], samples_ms: list[float], starts: list[float]) -> list[float]:
    """Each wall time scaled by REFERENCE_MS / the median sample of its slot.

    `starts` are the operations' start times in seconds (any origin), and
    `samples_ms[i]` is the routine time taken just before operation i.
    """
    slots: dict[int, list[float]] = {}
    for sample, start in zip(samples_ms, starts):
        slots.setdefault(int(start / SLOT_S), []).append(sample)
    speed = {slot: statistics.median(v) for slot, v in slots.items()}
    return [wall * REFERENCE_MS / speed[int(start / SLOT_S)] for wall, start in zip(walls, starts)]
