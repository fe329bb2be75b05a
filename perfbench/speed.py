"""Host-speed normalisation of measured times.

Other tenants of a shared machine change how fast the same Python code
runs, by a third or more, within a tenth of a second and for minutes at a
time; processor time moves with wall time, so neither clock alone is
steady.  A Sampler therefore runs a fixed reference loop from SIGALRM every
INTERVAL_S while a workload runs, in the workload's own thread, and a
measured span is reported as

    sum over pieces of (piece wall time) * REFERENCE_S / m

where the reference runs inside the span cut it into pieces and m is the
mean duration of the two reference runs around a piece.  The result is the
span's time on a host that runs the reference loop in REFERENCE_S, which is
about how long it takes on an idle core of a current x86 server, so that
reported times stay close to wall times on such a core.

The reference uses no commacat code, so a change to the package moves the
reported times and leaves the reference alone.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.02
REFERENCE_S = 0.0005
_ROWS = tuple(tuple((7 * i + 3 * j * j + i * j) % 5 for j in range(8))
              for i in range(8))


def reference() -> int:
    """A fixed bit of interpreter work like the package's own: row
    reduction of 8x8 matrices over F_5 on tuples, and dict lookups."""
    return sum(_reduce(k) for k in range(16))


def _reduce(shift: int) -> int:
    m = [list(r[shift % 8:] + r[:shift % 8]) for r in _ROWS]
    rank = 0
    for c in range(8):
        piv = next((i for i in range(rank, 8) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, 5)
        m[rank] = [x * inv % 5 for x in m[rank]]
        for i in range(8):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % 5 for a, b in zip(m[i], m[rank])]
        rank += 1
    seen = {tuple(r): i for i, r in enumerate(m)}
    return rank + len(seen)


def time_reference(repeats: int = 1) -> float:
    """Mean seconds of one reference run, measured now."""
    perf = time.perf_counter
    t0 = perf()
    for _ in range(repeats):
        reference()
    return (perf() - t0) / repeats


class Sampler:
    """Times the reference loop every INTERVAL_S while active.

    Use as a context manager around the measured code; afterwards
    normalise(start, end) converts any perf_counter span inside it.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.starts: list = []
        self.ends: list = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        perf = time.perf_counter
        t0 = perf()
        reference()
        self.starts.append(t0)
        self.ends.append(perf())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalise(self, start: float, end: float) -> float:
        """Seconds the span [start, end] takes at reference speed.

        The reference runs inside the span cut it into pieces; each piece
        is scaled by the mean of the two reference runs around it, and the
        reference runs themselves are left out.
        """
        n = len(self.starts)
        if not n:
            raise RuntimeError("no reference samples; was the sampler active?")

        def duration(i):
            i = min(max(i, 0), n - 1)
            return self.ends[i] - self.starts[i]

        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        total, t = 0.0, start
        for i in range(lo, hi + 1):
            piece_end = self.starts[i] if i < hi else end
            total += (piece_end - t) / ((duration(i - 1) + duration(i)) / 2)
            if i < hi:
                t = self.ends[i]
        return total * REFERENCE_S
