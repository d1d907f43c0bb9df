"""Host-speed probe, so that timings taken on a shared host can be compared.

On a 2-vCPU virtual machine shared with other tenants (Intel Xeon, no steal
time reported), the same pass over the same inputs ran anywhere from 1.0x
to 1.85x slower for seconds or minutes at a time, with process CPU time
equal to wall time: the host ran slower, it did not take the CPU away.
Run-to-run spreads of every timing were 11-50 %, and neither medians nor
minima over passes removed that, because a slow spell often covers a whole
run.

So the benchmark times a fixed piece of work of its own, every quarter of a
second, between its calls into the package and between training steps:
small-array numpy operations and Python object churn, the mix the autodiff
graph spends its time on. Time spent probing is taken out of every
interval that contains it, and every timed interval is then scaled by
`NOMINAL_S / probe`, the probe's duration interpolated at that interval.
A timing then reads as it would on the host at probe speed `NOMINAL_S`,
which is the probe's duration on the machine above when it was not slowed.
The probe never changes with the package, so a change to the package
moves the scaled numbers just as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

NOMINAL_S = 0.0044
ROUNDS = 60          # about 4.4 ms on the machine above
REPEATS = 3          # a probe reports the fastest of its repeats
INTERVAL_S = 0.25    # between probes inside training and one-instance calls

_rng = np.random.default_rng(0)
_X = _rng.normal(size=(10, 64))
_W = _rng.normal(size=(64, 64)) / 8.0


class _Node:
    __slots__ = ("data", "parents", "backward")

    def __init__(self, data, parents=(), backward=None):
        self.data = data
        self.parents = parents
        self.backward = backward


def _work() -> float:
    started = time.perf_counter()
    for _ in range(ROUNDS):
        x = _Node(_X)
        for _ in range(6):
            y = _Node(np.tanh(x.data @ _W), (x,), lambda g: g)
            x = _Node(y.data - y.data.mean(axis=1, keepdims=True), (y,))
    return time.perf_counter() - started


class HostSpeed:
    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.mids: list[float] = []
        self.seconds: list[float] = []     # probe duration, fastest repeat

    def probe(self) -> None:
        started = time.perf_counter()
        best = min(_work() for _ in range(REPEATS))
        ended = time.perf_counter()
        self.starts.append(started)
        self.ends.append(ended)
        self.mids.append((started + ended) / 2.0)
        self.seconds.append(best)

    def maybe_probe(self) -> None:
        """Probe if INTERVAL_S has passed since the last probe."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= INTERVAL_S:
            self.probe()

    def probe_at(self, t: float) -> float:
        """Probe duration at time t, linear between the probes around it."""
        mids = self.mids
        i = bisect.bisect_left(mids, t)
        if i == 0:
            return self.seconds[0]
        if i == len(mids):
            return self.seconds[-1]
        w = (t - mids[i - 1]) / (mids[i] - mids[i - 1])
        return self.seconds[i - 1] * (1.0 - w) + self.seconds[i] * w

    def busy(self, interval: tuple[float, float]) -> float:
        """The interval's length less the probes that ran inside it."""
        start, end = interval
        first = bisect.bisect_right(self.ends, start)
        last = bisect.bisect_left(self.starts, end)
        inside = sum(min(b, end) - max(a, start)
                     for a, b in zip(self.starts[first:last], self.ends[first:last]))
        return end - start - inside

    def scaled(self, interval: tuple[float, float]) -> float:
        """The interval's busy length as it would be at probe speed NOMINAL_S."""
        return self.busy(interval) * NOMINAL_S / self.probe_at(sum(interval) / 2.0)

    def scaled_through(self, interval: tuple[float, float]) -> float:
        """`scaled` for an interval with probes inside it, such as a whole
        training run: each stretch between probes is scaled by the host speed
        there, not the whole interval by the speed at its middle."""
        start, end = interval
        cuts = [start, *self.mids[bisect.bisect_right(self.mids, start):
                                  bisect.bisect_left(self.mids, end)], end]
        return sum(self.scaled(piece) for piece in zip(cuts, cuts[1:]))
