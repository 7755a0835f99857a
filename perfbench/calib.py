"""The machine's speed, from a fixed reference job timed next to the program's work.

The 2-core box this benchmark was measured on changes speed by up to 1.6x
in spells that last from seconds to minutes, while the program's work stays
the same; taking the fastest of a few repeats does not remove that, since a
whole run can fall into a slow spell.  Every time the benchmark reports is
therefore scaled to a reference speed: ``t * REF_S / c``, where c is the
median time of the reference job over the samples taken around t and REF_S
is about its time on a 2-core 2.1 GHz Xeon box with Python 3.11 when that
box ran fast.  A change to the program moves the scaled times as it moves
the raw ones; a change of the machine's speed moves both t and c.

The reference job starts an interpreter that does nothing (``python -I -c
pass``).  Of the references tried on that box (a plain Python loop, a numpy
loop of rank-1 updates, and this one), it tracked the program best.  Over
240 s of alternating samples, a block of 20 dual LPs divided by the median
reference of each 6 s window varied with a CV of 0.043, against 0.057 for
the Python loop, 0.082 for the numpy loop and 0.099 unscaled; a campaign
chunk varied 0.068, 0.073, 0.073 and 0.122.  The job runs no code of the
program, so it cannot hide a change of the program.

The job is waited for without a timeout.  With one, ``subprocess`` polls
for the child's end at 1, 2, 4, ... 32 ms and then every 50 ms, so every
sample read 64 or 114 ms: a floor that hid the machine's speed, and a
50 ms step that fell on about half of the samples at random.
"""

import statistics
import subprocess
import sys
import time

REF_S = 0.050  # seconds the reference job takes at the reference speed
EVERY_S = 0.4  # the timed loops take a sample at least this often
WINDOW_S = 2.0  # samples within this distance of a timed span set its speed
JOB = [sys.executable, "-I", "-c", "pass"]


class Clock:
    """Samples of the reference job taken in between the timed spans, and
    the scaling of a span by the samples near it."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (midpoint, duration)

    def sample(self) -> None:
        start = time.perf_counter()
        subprocess.run(JOB, check=True)  # a timeout would quantize dur
        dur = time.perf_counter() - start
        self.samples.append((start + dur / 2, dur))

    def due(self) -> bool:
        return not self.samples or time.perf_counter() - self.samples[-1][0] >= EVERY_S

    def scaled(self, start: float, dur: float) -> float:
        """dur seconds spent from start, at the reference speed."""
        mid, reach = start + dur / 2, WINDOW_S + dur / 2
        near = [d for t, d in self.samples if abs(t - mid) <= reach]
        return dur * REF_S / statistics.median(near)
