"""Host-speed calibration: a fixed pure-Python kernel timed around and during cells.

The machines this benchmark runs on are shared, and the speed of one CPU
drifts by a factor of up to two within seconds as other tenants load the
host.  The drift scales all Python work alike: timed back to back with a
cmcnc cell, the kernel's time and the cell's time correlated at 0.85-0.93.  So every timed interval is rescaled to a
host on which the kernel runs at ``REFERENCE_S`` per ``ITERATIONS``:

    seconds = measured seconds * reference rate / kernel rate during it

The rate during a cell comes from short runs that :class:`Sampler` makes
every ``SAMPLE_EVERY_S`` from a timer signal, during the cell and within
``WINDOW_S`` of it; their time is taken out of the cell's time.  Set-up
is scaled by full runs just before the interpreter starts and just before
the first cell.  The kernel does what relaycache does most (dict stores,
bytes slicing, ``int.from_bytes`` and XOR) and imports nothing from it, so
a change to relaycache cannot move it.
"""

from __future__ import annotations

import signal
from time import perf_counter

REFERENCE_S = 0.020
ITERATIONS = 50_000
SAMPLE_ITERATIONS = 5_000
SAMPLE_EVERY_S = 0.1
WINDOW_S = 0.25


def kernel(iterations: int = ITERATIONS) -> float:
    """Run the kernel once; returns its duration in seconds."""
    start = perf_counter()
    table = {}
    block = bytes(range(256)) * 16
    acc = 0
    for i in range(iterations):
        key = i % 977
        table[key] = block[i % 200 : i % 200 + 8]
        acc ^= int.from_bytes(table[key], "little")
    return perf_counter() - start


def scale(seconds: float, samples: list[tuple[int, float]]) -> float:
    """``seconds`` at the reference speed, given ``(iterations, seconds)`` kernel runs."""
    iterations = sum(n for n, _ in samples)
    spent = sum(t for _, t in samples)
    return seconds * REFERENCE_S * iterations / (ITERATIONS * spent)


class Sampler:
    """Runs a short kernel from a SIGALRM handler every ``SAMPLE_EVERY_S``.

    ``samples`` holds ``(start, duration)`` of each run, so a caller can
    find the runs inside an interval and subtract their time.  Only the
    main thread runs the handler, between bytecodes.  With a tracer, each
    run is a ``calibrate`` span under whatever span it interrupted.
    """

    def __init__(self, tracer=None) -> None:
        self.samples: list[tuple[float, float]] = []
        self.tracer = tracer
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        if self.tracer is None:
            self.samples.append((start, kernel(SAMPLE_ITERATIONS)))
        else:
            with self.tracer.span("calibrate"):
                self.samples.append((start, kernel(SAMPLE_ITERATIONS)))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def within(self, start: float, end: float) -> list[tuple[float, float]]:
        return [(s, d) for s, d in self.samples if start <= s < end]

    def around(self, start: float, end: float) -> list[tuple[int, float]]:
        """``(iterations, seconds)`` of the runs within ``WINDOW_S`` of an interval.

        A cell shorter than the sampling period may have none; it then
        takes the two runs nearest to it.
        """
        near = self.within(start - WINDOW_S, end + WINDOW_S)
        if not near:
            mid = (start + end) / 2
            near = sorted(self.samples, key=lambda sample: abs(sample[0] - mid))[:2]
        return [(SAMPLE_ITERATIONS, d) for _, d in near]
