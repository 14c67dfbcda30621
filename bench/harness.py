"""Closed-loop timing with host-speed calibration.

On a shared host the speed of one CPU drifts by up to a factor of two
over tens of seconds, and CPU time follows wall time, so neither clock
alone repeats between runs.  The loop therefore interleaves short slices
of a fixed pure-Python calibration kernel with the operations.  Each
operation's wall time is scaled by REF_SLICE_S over the median duration
of the eleven calibration slices nearest to it: a reported time is the
time the operation would take on a host where one slice takes exactly
REF_SLICE_S.  The kernel does not touch lambda-forge, so a change to the
program moves the reported times and leaves the scale alone.  A workload
whose operations are whole processes brings a reference process instead
(see ``workloads.CliTour``).
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

from workloads import OpFailed

# about the slice duration on an idle CPU of the reference host (2 vCPUs,
# Python 3.11.7); it only fixes the unit, any constant would do
REF_SLICE_S = 0.0012
# at most this much operation time passes between two calibration slices
WINDOW_S = 0.025
NEIGHBOURS = 11

_A = {(i, j): (i * 7 + j * 3) % 11 - 5 for i in range(6) for j in range(6)}


def _kernel():
    # a sparse product over Z and a Fraction sum: the same interpreter
    # work as the program's polynomial kernel, on fixed inputs
    out = {}
    for (i1, j1), c1 in _A.items():
        for (i2, j2), c2 in _A.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    f = Fraction(0)
    for i in range(1, 24):
        f += Fraction(1, i)
    return len(out) + f.denominator


KERNEL_CALLS = 4


def calibration_slice() -> float:
    """Wall time of a fixed amount of work, with the collector held off.

    A collection inside the slice would scan the program's heap and make
    the scale depend on how much memory the program holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(KERNEL_CALLS):
            _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Calibration:
    """A fixed piece of work, its duration on the reference host, and how
    much operation time may pass between two runs of it."""

    def __init__(self, measure=calibration_slice, ref_s=REF_SLICE_S, window_s=WINDOW_S):
        self.measure = measure
        self.ref_s = ref_s
        self.window_s = window_s

    def scale(self, slices, index: int) -> float:
        lo = max(0, index - NEIGHBOURS // 2)
        return self.ref_s / statistics.median(slices[lo:lo + NEIGHBOURS])


CPU = Calibration()


class RoundResult:
    """Per operation: its key, raw wall seconds, calibration-scaled seconds."""

    def __init__(self):
        self.keys = []
        self.raw = []
        self.scaled = []
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.failures = []
        self.rounds = 0


def run_rounds(make_round, seconds: float, min_rounds: int = 1, on_round=None,
               calibration: Calibration = CPU) -> RoundResult:
    """Run whole rounds of operations until ``seconds`` have passed.

    ``make_round(i)`` returns the operations of round i.  Operations run
    one at a time; each is timed alone, then checked outside the timer.
    ``on_round(i, raw_seconds, scaled_seconds)`` is told each round's
    totals.
    """
    result = RoundResult()
    slices = [calibration.measure()]
    slice_of = []
    start = time.perf_counter()
    next_slice = start + calibration.window_s
    while True:
        ops = make_round(result.rounds)
        first = len(result.raw)
        for op in ops:
            if time.perf_counter() >= next_slice:
                slices.append(calibration.measure())
                next_slice = time.perf_counter() + calibration.window_s
            if op.prepare is not None:
                op.prepare()
            error = None
            t0 = time.perf_counter()
            try:
                res = op.run()
            except Exception as exc:  # the program failed this operation
                error = exc
            elapsed = time.perf_counter() - t0
            result.raw.append(elapsed)
            result.keys.append(op.key)
            slice_of.append(len(slices) - 1)
            result.attempted += 1
            if error is not None:
                result.failed += 1
                result.failures.append(f"{op.label}: {error!r}")
                continue
            try:
                problem = op.check(res)
            except OpFailed as exc:
                result.failed += 1
                result.failures.append(f"{op.label}: {exc}")
                continue
            except Exception as exc:  # an answer the oracle cannot read is wrong
                problem = f"unreadable answer: {exc!r}"
            if problem:
                result.wrong.append(f"{op.label}: {problem}")
        slices.append(calibration.measure())
        for i in range(first, len(result.raw)):
            result.scaled.append(result.raw[i] * calibration.scale(slices, slice_of[i]))
        if on_round is not None:
            on_round(result.rounds, sum(result.raw[first:]), sum(result.scaled[first:]))
        result.rounds += 1
        if result.rounds >= min_rounds and time.perf_counter() - start >= seconds:
            break
    return result


SETUP_SLICES = 15


def setup_slices() -> list:
    return [calibration_slice() for _ in range(SETUP_SLICES)]


def scaled_setup(setup_seconds: float, before: list) -> float:
    """Scale a set-up time by slices taken right before and right after it."""
    return setup_seconds * REF_SLICE_S / statistics.median(before + setup_slices())


def round_seconds(keys, scaled) -> float:
    """The time of one round: each operation at its median over the rounds.

    One slow stretch of the host then moves a single sample of an
    operation, not the round total; with one or two rounds this is the
    mean round time.
    """
    by_key: dict = {}
    for key, t in zip(keys, scaled):
        by_key.setdefault(key, []).append(t)
    return sum(statistics.median(ts) for ts in by_key.values())
