"""Wall-clock bound on diffing two large unrelated bodies.

``tests/storage/test_diff.py::TestEditBound`` checks the same input
with a deterministic work count; this timing twin stays outside the
default test run (``tests/``) because a 15 ms bound fails whenever
the machine is busy.  CI runs it in its own step::

    PYTHONPATH=src python -m pytest -q benchmarks/test_diff_edit_bound.py
"""

from __future__ import annotations

import random
import time

from repro.storage.diff import (
    apply_differences_bytes,
    diff_bytes,
    invert_differences,
)


def design_file(rng, size):
    lines, length = [], 0
    while length < size:
        line = b"%s %d %d\n" % (rng.choice([b"gate", b"net", b"pin"]),
                                rng.randrange(10**6), rng.randrange(10**6))
        lines.append(line)
        length += len(line)
    return lines


class TestEditBound:
    def test_unrelated_large_bodies_are_fast_and_round_trip(self):
        rng = random.Random(3)
        old = b"".join(design_file(rng, 34_000))
        new = b"".join(design_file(rng, 34_000))
        best = float("inf")
        for __ in range(3):
            started = time.perf_counter()
            script = diff_bytes(old, new)
            best = min(best, time.perf_counter() - started)
        assert best <= 0.015
        assert apply_differences_bytes(old, script) == new
        assert apply_differences_bytes(
            new, invert_differences(script)) == old
