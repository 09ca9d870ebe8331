"""Machine-speed probe for the end-to-end times.

The machines this benchmark runs on share their cores with other
tenants.  A core's speed drifts by a factor of up to ~2.5 over minutes
and by +-20% over seconds, and the two cores of a 2-core machine drift
independently.  At a fixed seed, so with identical work, raw ``table1``
pass times spread by 0.13 (quartile distance over median).

:class:`SpeedProbe` measures the core's speed *while* the engine runs:
a ``SIGALRM`` interval timer interrupts the measuring process every
:data:`INTERVAL_S` and the handler, on the same thread and core, times
a fixed probe of interpreter work (a list-based bit-parallel gate
sweep, like the engine's inner loops).  Each call's time is taken net
of the probes inside it and scaled by ``REFERENCE_S / median(probe
times during the call)``: it is reported in seconds at the reference
speed, the speed at which one probe takes :data:`REFERENCE_S`.

On the same fixed-seed passes this cut the spread from 0.13 to 0.02 and
0.06 in two trials, where a memory-bound probe (random reads from a
16 MB array) left 0.07 and 0.12, probing between calls instead of
during them 0.09, and one speed factor per run 0.24.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from typing import List

#: seconds between probes
INTERVAL_S = 0.1
#: probe seconds at the reference speed; scaled times are reported in
#: seconds at this speed
REFERENCE_S = 0.0006

_GATES = 3000
_MASK = 0xFFFF


class SpeedProbe:
    """Interval-timer speed samples of the measuring process's core."""

    def __init__(self) -> None:
        rng = random.Random(3)
        self._fanins = [(rng.randrange(i) if i else 0,
                         rng.randrange(i) if i else 0, rng.randrange(3))
                        for i in range(_GATES)]
        #: seconds of every probe taken so far
        self.samples: List[float] = []
        self._previous = None

    def _probe(self) -> int:
        values = [0x5555] * _GATES
        for i, (a, b, op) in enumerate(self._fanins):
            x, y = values[a], values[b]
            values[i] = (x & y if op == 0 else x ^ y if op == 1
                         else ~(x | y) & _MASK)
        return values[-1]

    def _on_alarm(self, signum, frame) -> None:
        started = time.perf_counter()
        self._probe()
        self.samples.append(time.perf_counter() - started)

    def start(self) -> None:
        """Begin sampling; call from the process's main thread."""
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None


    def mark(self) -> int:
        """Position in :attr:`samples` at the start of a timed span."""
        return len(self.samples)

    def scaled(self, seconds: float, mark: int) -> float:
        """``seconds`` of a span begun at ``mark``, net of the probes
        taken inside it, at the reference speed.  A span too short to
        hold a probe is scaled by the last probes before it."""
        inside = self.samples[mark:]
        speed = inside or self.samples[max(0, mark - 3):mark]
        if not speed:
            return seconds
        return ((seconds - sum(inside)) * REFERENCE_S
                / statistics.median(speed))
