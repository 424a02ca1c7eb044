"""The host's current speed, read from a fixed pure-Python reference.

The benchmark shares a few cores of a host whose speed follows the
other tenants' load: the same pure-Python loop runs in one of two
states about 1.7 times apart, in CPU time as well as wall time, and the
share of time spent in the slow state moves from minute to minute.  A
run's raw timings follow that drift, so two runs of the same code
minutes apart differ by more than any useful regression bound.

So the benchmark reads the host's speed between its timed calls and
scales its timings by it.  The reference is a small polynomial product
over dicts of tuple keys and Python ints, the kind of work chevcalc's
ring arithmetic does; it imports nothing from chevcalc, so no change to
the program moves it.  A reading is the median of a few timed
repetitions.  Times scaled by `factor(readings)` are in reference
seconds: what the work takes on a host that runs the reference in
`NOMINAL_S`.  A change that speeds chevcalc up lowers its reference
seconds by the same share as its raw seconds.

Each pass over a workload's items is scaled by one factor, from the
readings taken during it: one before an item whenever `every_s` seconds
have gone by since the last, and one after the pass.  An item counts at
the mean of the readings on either side of it, weighted by its time, so
that a long item weighs as much as the many short ones that fill the
same time.  The host flips between its fast and its slow state every
few tens of milliseconds to seconds, so a single reading says little
about the call beside it, while the weighted mean over a pass moves in
proportion to the share of the pass spent slow; the medians over many
passes then absorb the passes where the two differ.
"""

import statistics
import time

# about a reading on the benchmark's host in its fast state
NOMINAL_S = 0.0025
REPEATS = 3


def _reference_work():
    p = {(i, j): 3 * i + 7 * j + 1 for i in range(7) for j in range(7)}
    q = p
    for _ in range(2):
        r = {}
        for (a, b), c in p.items():
            for (d, e), f in q.items():
                k = (a + d, b + e)
                r[k] = r.get(k, 0) + c * f
        q = r
    return len(q)


def reading():
    """Median time of one reference run, in seconds, measured now."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _reference_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def factor(readings):
    """Raw seconds times this are reference seconds."""
    return NOMINAL_S / statistics.fmean(readings)


class Gauge:
    """Readings between the timed calls of a run, and for each call of
    the current pass the index of the last reading before it."""

    def __init__(self, every_s=0.1):
        self.every_s = every_s
        self.readings = []
        self.marks = []
        self._at = float("-inf")

    def tick(self, force=False):
        if force or time.perf_counter() - self._at >= self.every_s:
            self.readings.append(reading())
            self._at = time.perf_counter()

    def start_pass(self):
        self.marks = []

    def before_call(self):
        self.tick()
        self.marks.append(len(self.readings) - 1)

    def end_pass(self):
        self.tick(force=True)
        self.marks.append(len(self.readings) - 1)

    def pass_factor(self, times):
        """The factor for a pass whose calls took `times` raw seconds."""
        r = [self.readings[m] for m in self.marks]
        weighted = sum(t * (a + b) / 2 for t, a, b in zip(times, r, r[1:]))
        return NOMINAL_S * sum(times) / weighted

    def warm(self, seconds):
        """Run the reference for `seconds` so the core is busy before timing."""
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            reading()
