"""Speed calibration and the arithmetic every metric goes through.

The box this benchmark runs on is shared: the same work takes between
one and three times as long depending on what the host is doing, in
regimes that last from under a second to minutes (bench/README.md has
the measurements).  A fixed kernel is therefore timed next to the
workload, in the driver and in the server process, and every
time-valued end-to-end metric is reported at *reference speed*: as if
the kernel had taken ``REF_KERNEL_S`` throughout.
"""

from __future__ import annotations

import json
import statistics
import struct
import zlib
from array import array
from bisect import bisect_right
from time import perf_counter

__all__ = ["REF_KERNEL_S", "kernel", "percentile", "speed_factor",
           "iqr_ratio", "SpeedTrack"]

#: What one kernel run costs at reference speed: its usual time on the
#: box the benchmark was built on, in a quiet hour.  A constant, so
#: numbers from different runs, days and commits are on one scale.
REF_KERNEL_S = 0.0020

#: Calibration samples on each side of an interval that vote on the
#: machine's speed there.
_NEIGHBOURS = 8


class _Cell:
    __slots__ = ("number", "text", "pair", "next")

    def __init__(self, number: int) -> None:
        self.number = number
        self.text = str(number)
        self.pair = (number, number + 1)


_CELLS = 20000
_JUMPS = 1 << 19


def _kernel_state() -> list:
    """The kernel's data, built once per process (about 20 ms).  Both
    orders are full-period linear congruential sequences: scattered
    like a shuffle, but cheap to lay out."""
    cells = [_Cell(number) for number in range(_CELLS)]
    for number, cell in enumerate(cells):
        cell.next = cells[(number * 19541 + 7) % _CELLS]
    # jumps[i] & (_JUMPS - 1) is the position after i.
    jumps = array("q", range(12345, 12345 + 1664525 * _JUMPS, 1664525))
    message = {"id": 12345, "method": "openNode",
               "params": {"node": 17, "time": 0, "attributes": [1, 2, 3],
                          "contents": "hypertext node link version " * 20},
               "versions": list(range(40))}
    blob = bytes(number * 37 & 255 for number in range(4096))
    return [cells[0], 0, jumps, message, blob]


_STATE = _kernel_state()


def kernel() -> float:
    """Seconds one fixed piece of interpreter work takes right now.

    Four stanzas of about equal length, because the host's slow spells
    do not slow all code alike (a loop that lives in the first-level
    cache lost 7 % where the server lost 16 %): integer arithmetic with
    dict and bytearray stores; a walk over 20 000 small objects in
    scattered order, reading attributes and building tuples, a dict and
    a bytes join; C-library work (json, struct, crc32, sort, split);
    and a pointer chase through a 4 MB array.  Calibrated against this
    mix, the workloads' latencies held within a few percent while the
    box's speed moved by a factor of two.
    """
    state = _STATE
    start = perf_counter()
    acc = 0
    table = {}
    buf = bytearray(64)
    for i in range(3000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 255] = acc
        buf[i & 63] = acc & 255
    cell = state[0]
    seen = []
    for i in range(940):
        cell = cell.next
        acc += cell.number + len(cell.text) + cell.pair[1]
        if i & 7 == 0:
            seen.append((cell.text, acc))
    b"".join(text.encode() for text in dict(seen))
    state[0] = cell
    message, blob = state[3], state[4]
    for __ in range(18):
        json.loads(json.dumps(message))
        struct.pack("<IQI", 1, 2, 3)
        zlib.crc32(blob)
        sorted(message["versions"], key=int.__neg__)
        blob.split(b"\x00")
    position = state[1]
    jumps = state[2]
    for __ in range(4000):
        position = jumps[position] & 0x7FFFF
    state[1] = position
    return perf_counter() - start


def percentile(values, fraction: float) -> float:
    """Linear-interpolated percentile of ``values`` (need not be sorted)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = fraction * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def speed_factor(kernel_samples, how=statistics.median) -> float:
    """Multiply a raw time by this to get the time at reference speed.

    The median of the samples says how slow a *typical* moment was — the
    right scale for a median latency, which stalls that hit a minority
    of operations do not move.  Their mean says how much longer *all*
    the work took, stalls included — the right scale for a throughput.
    """
    return REF_KERNEL_S / how(kernel_samples)


def iqr_ratio(samples) -> float:
    """Interquartile range of ``samples`` as a share of their median."""
    if len(samples) < 2:
        return 0.0
    q1, __, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


class SpeedTrack:
    """Kernel samples over time; answers "how fast was the box at t".

    The host's speed moves in regimes longer than a calibration window
    and shorter than a run, so one factor per run is too coarse and one
    sample per instant too noisy: the factor at ``t`` is taken from the
    median of the few samples on either side of ``t``.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.samples: list[float] = []

    def add(self, when: float, kernel_s: float) -> None:
        self.times.append(when)
        self.samples.append(kernel_s)

    def factor_over(self, start: float, end: float,
                    how=statistics.median) -> float:
        """Factor for an interval: the samples inside it and the
        neighbours just outside."""
        low = max(0, bisect_right(self.times, start) - _NEIGHBOURS)
        high = bisect_right(self.times, end) + _NEIGHBOURS
        return speed_factor(self.samples[low:high], how)

    def overall(self) -> float:
        return speed_factor(self.samples)
