"""Shared-resource primitives for the DES engine.

Two primitives, modeled after queueing-theory building blocks:

* :class:`Resource` — ``capacity`` identical servers with a FIFO wait
  queue (an M/G/c service station when driven by random arrivals).
* :class:`FifoLink` — one FIFO server whose hold times are known on
  arrival (a NIC direction), at one event per message.

Both return events; processes ``yield`` them.  ``Resource``
requests are context managers so handlers can write::

    with cpu.request() as req:
        yield req
        yield env.timeout(service_time)
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List

from .engine import Environment, Event, SimulationError

__all__ = ["Resource", "Request", "FifoLink"]


class Request(Event):
    """A pending or granted claim on one unit of a :class:`Resource`."""

    __slots__ = ("resource", "_released")

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        self._released = False

    def release(self) -> None:
        """Return the claimed unit (idempotent)."""
        if not self._released:
            self._released = True
            self.resource._release(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()


class Resource:
    """``capacity`` identical servers with a FIFO wait queue."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: List[Request] = []
        self.queue: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of units currently claimed."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a unit."""
        return len(self.queue)

    @property
    def utilization(self) -> float:
        """Instantaneous busy fraction, in ``[0, 1]``."""
        return len(self.users) / self.capacity

    def request(self) -> Request:
        """Claim one unit; the returned event triggers when granted."""
        req = Request(self)
        if len(self.users) < self.capacity:
            self.users.append(req)
            req.succeed()
        else:
            self.queue.append(req)
        return req

    def _release(self, req: Request) -> None:
        if req in self.users:
            self.users.remove(req)
        else:
            # Released while still queued: withdraw the claim.
            try:
                self.queue.remove(req)
            except ValueError:
                pass
            return
        while self.queue and len(self.users) < self.capacity:
            nxt = self.queue.popleft()
            if nxt._released:
                continue
            self.users.append(nxt)
            nxt.succeed()


class FifoLink:
    """One FIFO server whose hold times are known on arrival, e.g. a NIC
    direction: ``Resource(capacity=1)`` plus a hold, in one event.

    :meth:`transmit` returns the message's departure event.  The link
    is handed to the next message with :meth:`Environment.call_soon
    <repro.sim.engine.Environment.call_soon>`, at the very instant and
    in the very same-instant order a ``Resource`` grant event would
    have had, and the departure is then scheduled ``hold`` later: the
    Lindley recursion ``depart = max(arrive, free_at) + hold`` evaluated
    at the hand-off.  A message therefore costs one event (its
    departure) where a ``Resource`` costs a :class:`Request`, a grant
    event, a process resume and a hold :class:`Timeout`, and every
    departure keeps the time and the ``(time, seq)`` place it had on
    that path.  Evaluating the recursion at arrival instead gives the
    same times but earlier sequence numbers, which reorders exact time
    ties with other events and so changes results at high load.
    Unlike a request, a transmission cannot be withdrawn.
    """

    __slots__ = ("env", "_queue")

    def __init__(self, env: Environment):
        self.env = env
        # (departure, hold) of the message serializing, then the
        # messages waiting behind it.
        self._queue: Deque[tuple] = deque()

    @property
    def depth(self) -> int:
        """Messages queued or serializing on the link."""
        return len(self._queue)

    def transmit(self, hold: float) -> Event:
        """Queue one message that occupies the link for ``hold``
        seconds; the returned event triggers at its departure."""
        departure = Event(self.env)
        departure.callbacks.append(self._depart)
        self._queue.append((departure, hold))
        if len(self._queue) == 1:
            self.env.call_soon(self._grant)
        return departure

    def _grant(self) -> None:
        departure, hold = self._queue[0]
        self.env._schedule(departure, hold)

    def _depart(self, departure: Event) -> None:
        # Runs before the sender resumes, as the Resource path released
        # the link first thing on resuming.
        self._queue.popleft()
        if self._queue:
            self.env.call_soon(self._grant)

