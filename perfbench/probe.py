"""Machine-speed probe: host times at a fixed reference speed.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over seconds to minutes (other tenants, SMT siblings, frequency), and
the drift is the same for every line of Python this process runs.  A
small fixed piece of pure-Python work (:func:`probe_work`, part of the
benchmark, never of the simulator) is therefore run every
``INTERVAL_S`` seconds from a ``SIGALRM`` handler while host time is
measured.  Its mean duration over an interval says how fast the machine
ran during it, so

    reference seconds = measured seconds x REF_S / mean probe seconds

is the interval's host time on a machine where one probe takes
``REF_S``.  The simulator's own speed still moves it one for one: a
change that makes the simulator 10% faster makes it 10% smaller.  The
probes' own time is taken out of every measured interval, so raw times
stay raw.  Interval timers are not inherited across ``fork``, so forked
simulator shards never run probes; while forked shards run, probing is
paused, since they keep every core busy and a probe would then time
them rather than the machine.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

_perf = time.perf_counter

#: Seconds between probes.
INTERVAL_S = 0.1
#: Duration of one probe at the reference speed (close to its typical
#: duration on the 2-core Intel Xeon VM the benchmark was tuned on, so
#: reference seconds read close to measured ones there).
REF_S = 0.0032


def probe_work() -> int:
    """Fixed interpreter work: integer arithmetic, dict and list traffic
    and method calls, the mix the simulator's hot loops are made of."""
    table: dict[int, int] = {}
    items: list[int] = []
    acc = 0
    for i in range(6000):
        key = i * 2654435761 % 1021
        table[key] = table.get(key, 0) + i
        items.append(key & 31)
        acc += (i * i) % 7
    items.sort()
    return acc + len(table) + items[len(items) // 2]


class Mark:
    """Probe state at the start of a measured interval."""

    __slots__ = ("t0", "spent", "count")

    def __init__(self, t0: float, spent: float, count: int):
        self.t0, self.spent, self.count = t0, spent, count


class SpeedProbe:
    """Runs :func:`probe_work` on a timer and converts measured intervals
    to reference seconds.  Idle (no timer) unless entered."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # probe seconds so far
        self._previous = None
        self._active = False

    def _fire(self, _signum, _frame) -> None:
        t0 = _perf()
        probe_work()
        dt = _perf() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._active = True
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._active = False

    @contextlib.contextmanager
    def paused(self, pause: bool = True):
        """No probes inside the block when ``pause`` is true."""
        if not (pause and self._active):
            yield
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def mark(self) -> Mark:
        return Mark(_perf(), self.spent, len(self.samples))

    def elapsed(self, mark: Mark) -> float:
        """Measured seconds since ``mark``, probe time excluded."""
        return _perf() - mark.t0 - (self.spent - mark.spent)

    def factor(self, mark: Mark) -> float:
        """REF_S over the mean probe duration since ``mark`` (one probe is
        run now if none ran since, e.g. for a very short interval)."""
        if len(self.samples) == mark.count:
            self._fire(None, None)
        return REF_S / statistics.fmean(self.samples[mark.count:])


#: The process-wide probe; its ``spent`` stays 0 while it is not entered.
PROBE = SpeedProbe()
