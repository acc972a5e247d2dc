"""The simulation clock.

Following the standard discrete-event technique the paper adopts (§III-A2),
time is purely virtual: the clock only moves when the controller pops an
event, jumping directly to that event's timestamp.  All times are in
milliseconds, matching the paper's units for delays and timeouts.
"""

from __future__ import annotations

from .errors import SchedulingError


class SimulationClock:
    """Monotonic virtual clock.

    ``now`` is a plain attribute: the event queue stores each released
    event's time there (:meth:`~repro.core.events.EventQueue.pop_entry`) and
    refuses any push earlier than it, so the queue's ``(time, handle)`` order
    keeps the clock monotonic without a check per event.  :meth:`advance_to`
    is the checked move for everyone else.
    """

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0) -> None:
        #: Current simulation time in milliseconds.
        self.now = float(start)

    def advance_to(self, time: float) -> None:
        """Jump the clock forward to ``time``.

        Raises:
            SchedulingError: if ``time`` precedes the current time.
        """
        if time < self.now:
            raise SchedulingError(
                f"clock cannot move backwards: {time:.3f} < {self.now:.3f}"
            )
        self.now = float(time)

    def __repr__(self) -> str:
        return f"SimulationClock(now={self.now:.3f})"
