"""A fixed piece of pure-Python work that samples how fast the host runs now.

On a shared host the same code runs up to 2x slower from one minute to the
next, because of load outside this machine. The benchmark runs this probe
between the program's calls and, through `Sampler`, during them, and scales
the program's times by PROBE_REF_S ÷ probe time, so that host speed cancels
out of the metrics.
"""

from __future__ import annotations

import gc
import json
import signal
from time import perf_counter

# Seconds per probe round on the 2-vCPU host the benchmark was tuned on, in
# its fast state; scaled times read as seconds on that host at that speed.
PROBE_REF_S = 0.0015


def _round() -> None:
    counts: dict[str, int] = {}
    pairs = []
    for i in range(2000):
        key = f"w{i % 97}"
        counts[key] = counts.get(key, 0) + i
        pairs.append((key, i))
    pairs.sort(key=lambda kv: (kv[0], -kv[1]))
    json.dumps(counts)


def probe(rounds: int) -> float:
    """Mean seconds per probe round, with the cyclic collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(rounds):
            _round()
        return (perf_counter() - start) / rounds
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Probes one round every `interval` seconds while code runs, from a
    SIGALRM handler in the main thread, so that a change of host speed in
    the middle of a long call is seen. `spent` is the time the probes took,
    for the caller to subtract from what it timed."""

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(probe(1))
        self.spent += perf_counter() - start

    def start(self) -> None:
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
