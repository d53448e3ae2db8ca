"""The reference loop that end-to-end times are scaled by.

On a host whose cores are shared with other tenants, such as a small cloud
VM, how fast code runs drifts by ±20% over tens of seconds, and for minutes
at a time it can run at less than half speed (measured on a 2-vCPU x86-64
VM). That drift is much the same for the program and for any other CPU-bound
code on the same core at the same moment. So every run times this fixed
pure-Python loop between its operations, and end-to-end times are reported
as they would read if the loop had taken NOMINAL_S:
seconds * NOMINAL_S / reference seconds.
A change to bayescfar moves the numerator only.

The loop does integer arithmetic and allocates no containers, so it never
triggers the cyclic garbage collector, whose cost grows with what the
program under test keeps alive.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

ITERATIONS = 12_000
NOMINAL_S = 2e-3       # about what one pass takes on a 2-core x86-64 VM, Python 3.11
# A sample lasts at least this share of the interval it brackets: the host's
# speed also jitters within a second, and a single 2 ms pass next to a 5 s
# operation would carry that jitter into the scaled time.
SHARE = 0.1
SETUP_S = 1.0          # about how long a worker's set-up takes


def _pass() -> None:
    s = 0
    for i in range(ITERATIONS):
        s = (s * 1103515245 + i) & 0xFFFFFFFF


def sample(interval_s: float) -> float:
    """Seconds one pass of the loop takes now, over at least SHARE * interval_s."""
    t0 = perf_counter()
    passes = 0
    while True:
        _pass()
        passes += 1
        elapsed = perf_counter() - t0
        if elapsed >= SHARE * interval_s:
            return elapsed / passes


def normalise(seconds: float, before: float, after: float) -> float:
    """Scale seconds measured between two reference samples to NOMINAL_S."""
    return seconds * NOMINAL_S / (0.5 * (before + after))


class Clock:
    """Times operations in segments, with a reference sample after each one.

    An operation may call split() between its library calls, so that a long
    operation is scaled by samples taken inside it, not only at its ends. The
    samples' own time is left out of the operation's time.

    A workload that keeps several cores busy is slowed by whichever of them
    is contended, so with cores > 1 the loop runs on that many cores at once,
    in helper processes, and a sample is the mean over them.
    """

    def __init__(self, span, cores: int = 1):
        self.span = span                       # tracer.span, or a no-op
        self._helpers = [
            subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, text=True, bufsize=1)
            for _ in range(cores - 1)
        ]
        self.samples = [self._sample(SETUP_S)]
        self.raw_s = self.scaled_s = 0.0
        self._t0 = perf_counter()

    def _sample(self, interval_s: float) -> float:
        for helper in self._helpers:
            helper.stdin.write(f"{interval_s!r}\n")
        own = sample(interval_s)
        return (own + sum(float(h.stdout.readline()) for h in self._helpers)) / (1 + len(self._helpers))

    def close(self) -> None:
        for helper in self._helpers:
            helper.stdin.close()
            helper.wait(timeout=30)

    def start(self) -> None:
        self.raw_s = self.scaled_s = 0.0
        self._t0 = perf_counter()

    def split(self) -> None:
        seconds = perf_counter() - self._t0
        with self.span("bench.reference"):
            now = self._sample(seconds)
        self.raw_s += seconds
        self.scaled_s += normalise(seconds, self.samples[-1], now)
        self.samples.append(now)
        self._t0 = perf_counter()


if __name__ == "__main__":
    # helper process of a Clock: one sample per interval read from stdin
    for line in sys.stdin:
        print(repr(sample(float(line))), flush=True)
