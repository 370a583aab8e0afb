"""How fast the host runs right now, from a fixed unit of pure-Python work.

The benchmark's host shares its cores with other tenants, and their load
changes how fast this process runs by 20-50% from one second to the next.
Both the validator and the unit below are pure Python, and they slow down
together, so timing the unit around and inside each measured step tells how
fast the host ran during that step.  :class:`Pacer` rescales each step's
measured time to a host on which the unit takes :data:`REFERENCE_SECONDS`.

The unit builds a small hash-consed node table, the kind of work the value
graph does, but calls nothing of the validator, so no change to the
validator changes its time.  The collector is off while it runs, so the
validator's heap does not add collections to it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import Callable, List, Optional, Tuple, TypeVar

#: Nominal time of :func:`reference_unit`: its time on a 2.0 GHz Xeon VM
#: core under Python 3.11 with the host quiet.  Paced times are seconds on a
#: host that runs the unit in exactly this long.
REFERENCE_SECONDS = 0.005
#: Loop trips of one unit.
TRIPS = 8_000
#: CPU seconds between the units timed inside a long step.
INTERVAL = 0.1

T = TypeVar("T")


class _Node:
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: int, right: int) -> None:
        self.op = op
        self.left = left
        self.right = right


def reference_unit() -> int:
    """A fixed amount of interning, dictionary and attribute work."""
    table = {}
    total = 0
    for trip in range(TRIPS):
        key = ("add" if trip & 1 else "mul", trip % 251, (trip * 7) % 239)
        node = table.get(key)
        if node is None:
            node = table[key] = _Node(*key)
        total += node.left + node.right
    return total


def timed_reference() -> float:
    """Seconds one :func:`reference_unit` takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = time.perf_counter()
        reference_unit()
        return time.perf_counter() - began
    finally:
        if enabled:
            gc.enable()


class Pacer:
    """Times steps, each paced by the reference units around and inside it.

    A unit is timed on entry and after every step, so consecutive steps
    share the unit between them.  Inside a step, a ``SIGPROF`` handler
    times one more unit every :data:`INTERVAL` of CPU time; its time is
    taken out of the step's.  A long step is thus paced by the speed the
    host had while it ran, not only at its ends.
    """

    def __init__(self) -> None:
        #: Every unit timed, in order.
        self.references: List[float] = []
        self._inside: Optional[List[float]] = None
        self._handled = 0.0
        self._last = 0.0

    def __enter__(self) -> "Pacer":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        # Restart system calls the signal interrupts (sqlite's among them).
        signal.siginterrupt(signal.SIGPROF, False)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
        self._last = self._reference()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def _reference(self) -> float:
        seconds = timed_reference()
        self.references.append(seconds)
        return seconds

    def _sample(self, signum, frame) -> None:
        if self._inside is None:
            return
        began = time.perf_counter()
        self._inside.append(self._reference())
        self._handled += time.perf_counter() - began

    def step(self, call: Callable[[], T]) -> Tuple[T, float, float]:
        """``call()``'s result, its measured seconds and its paced seconds."""
        before, handled = self._last, self._handled
        inside: List[float] = []
        self._inside = inside
        began = time.perf_counter()
        try:
            result = call()
        finally:
            self._inside = None
        seconds = time.perf_counter() - began - (self._handled - handled)
        self._last = self._reference()
        speed = statistics.fmean([before, *inside, self._last])
        return result, seconds, seconds * REFERENCE_SECONDS / speed
