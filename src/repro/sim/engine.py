"""Discrete-event simulation engine.

A small, fast, generator-based DES core in the style of SimPy, written
from scratch for this project.  Simulation *processes* are Python
generators that ``yield`` :class:`Event` objects; the environment resumes
a process when the event it waits on is triggered.

Design notes
------------
* Events carry an ``ok`` flag; failed events raise their exception inside
  the waiting process, so simulation code can use ordinary ``try/except``.
* Heap entries are plain ``[time, seq, event]`` lists so ordering is
  resolved by C-level tuple comparison; the unique, monotonically
  increasing ``seq`` both breaks time ties deterministically and counts
  every event ever scheduled (:attr:`Environment.events_scheduled`).
  Components that need cancellation (e.g. the processor-sharing server in
  :mod:`repro.sim.ps`) implement it with generation counters on their own
  callbacks rather than engine-level tombstones, which keeps the hot loop
  branch-free.
* :meth:`Environment.call_soon` queues a same-instant callback beside
  the heap, in the place a ``succeed()``-ed event would take in the
  ``(time, seq)`` order, without taking a heap entry or a sequence
  number (FIFO grant hand-offs use it).
* The scheduling fast path is deliberately inlined: ``succeed``/``fail``
  and ``Timeout.__init__`` push onto the heap directly instead of going
  through a helper, because at ~400k events per simulated run every
  attribute lookup and frame push shows up in the flight-recorder profile
  (``repro profile``).
* Time is a ``float`` in **seconds**.  All latency outputs across the
  library are seconds unless a function says otherwise.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Generator, Iterable, List, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "SimulationError",
]


class SimulationError(Exception):
    """Raised for illegal uses of the simulation API."""


class Event:
    """An occurrence at a point in simulated time.

    An event starts *pending*, becomes *triggered* when given a value (or
    an exception), and is *processed* once its callbacks have run.
    Processes wait on events by ``yield``-ing them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_processed")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event failed."""
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        if not self._ok:
            raise self._value
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._value = value
        env = self.env
        seq = env._seq
        env._seq = seq + 1
        heapq.heappush(env._heap, [env.now, seq, self])
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters will see ``exception``."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() needs an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        env = self.env
        seq = env._seq
        env._seq = seq + 1
        heapq.heappush(env._heap, [env.now, seq, self])
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else (
            "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = False
        self._processed = False
        self.delay = delay
        seq = env._seq
        env._seq = seq + 1
        heapq.heappush(env._heap, [env.now + delay, seq, self])


class Process(Event):
    """A running simulation process wrapping a generator.

    The process is itself an event: it triggers with the generator's
    return value when the generator finishes, or fails with the
    generator's uncaught exception.
    """

    __slots__ = ("_generator", "name")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: resume once at the current time.
        boot = Event(env)
        boot.callbacks.append(self._resume)
        boot.succeed()

    # -- internals -------------------------------------------------------
    def _resume(self, event: Event) -> None:
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self._terminate(exc)
            return
        self._wait_on(target)

    def _step_throw(self, exc: BaseException) -> None:
        try:
            target = self._generator.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as err:
            self._terminate(err)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        if not isinstance(target, Event):
            self._step_throw(SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"))
            return
        if target._processed:
            # Already done: resume immediately (next scheduler step).
            kick = Event(self.env)
            kick.callbacks.append(lambda ev: self._resume(target))
            kick.succeed()
        else:
            target.callbacks.append(self._resume)

    def _terminate(self, exc: BaseException) -> None:
        if not self.callbacks:
            # Nobody is waiting on this process: surface the crash.
            self.env._crash = exc
        self.fail(exc)


class _MultiEvent(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("events", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        self._pending = 0
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev._processed:
                self._notify(ev)
            else:
                ev.callbacks.append(self._notify)
                self._pending += 1
        self._check_immediate()

    def _check_immediate(self) -> None:
        raise NotImplementedError

    def _notify(self, event: Event) -> None:
        raise NotImplementedError

    def _collect(self) -> dict:
        return {i: ev._value for i, ev in enumerate(self.events) if ev._triggered}


class AllOf(_MultiEvent):
    """Triggers when all constituent events have triggered.

    Its value is ``{index: value}`` for every constituent.  Fails as soon
    as any constituent fails.
    """

    __slots__ = ()

    def _check_immediate(self) -> None:
        if not self._triggered and all(ev._triggered for ev in self.events):
            if all(ev._ok for ev in self.events):
                self.succeed(self._collect())

    def _notify(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        if all(ev._triggered and ev._ok for ev in self.events):
            self.succeed(self._collect())


class AnyOf(_MultiEvent):
    """Triggers as soon as any constituent event triggers."""

    __slots__ = ()

    def _check_immediate(self) -> None:
        for ev in self.events:
            if ev._triggered:
                if ev._ok:
                    if not self._triggered:
                        self.succeed(self._collect())
                else:
                    if not self._triggered:
                        self.fail(ev._value)
                return

    def _notify(self, event: Event) -> None:
        if self._triggered:
            return
        if event._ok:
            self.succeed(self._collect())
        else:
            self.fail(event._value)


class Environment:
    """The simulation environment: clock plus event scheduler.

    ``step_hook`` is the flight-recorder attachment point (see
    :mod:`repro.obs.profile`): when set to a callable it receives
    ``(event)`` *before* each event's callbacks run, and ``run()``
    switches to an instrumented loop.  When it is ``None`` — the normal
    case — the hot loop carries no profiling branches at all.  Calls
    queued with :meth:`call_soon` are not events and bypass the hook.
    """

    def __init__(self, initial_time: float = 0.0):
        self.now: float = initial_time
        # Entries are [time, seq, event]; seq is unique so comparisons
        # never reach the (uncomparable) event object.
        self._heap: List[list] = []
        self._seq = 0
        # call_soon() queue of (seq, callback), all due at ``now``.
        self._soon: Deque[tuple] = deque()
        self._crash: Optional[BaseException] = None
        self.step_hook: Optional[Callable[[Event], None]] = None

    @property
    def events_scheduled(self) -> int:
        """Total events scheduled over this environment's lifetime.

        A work counter, not a perf denominator: the simulator's unit of
        work is a simulated request, so speed is requests per wall
        second (``benchmarks/bench_perf_engine.py``), and events per
        request is the cost that engine optimisations cut.  Fewer events
        for the same request is a win even if events/sec falls.
        """
        return self._seq

    # -- factory helpers -------------------------------------------------
    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Return an event triggering ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def event(self) -> Event:
        """Return a fresh untriggered event."""
        return Event(self)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start ``generator`` as a simulation process."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event triggering when every event in ``events`` has triggered."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event triggering when the first event in ``events`` triggers."""
        return AnyOf(self, events)

    # -- scheduling -------------------------------------------------------
    def _schedule(self, event: Event, delay: float) -> None:
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, [self.now + delay, seq, event])

    def call_soon(self, callback: Callable[[], None]) -> None:
        """Run ``callback()`` at the current instant, exactly where the
        callbacks of an event ``succeed()``-ed right now would run:
        after every heap entry already due now, before anything
        scheduled later.  It takes no heap entry and no sequence
        number, so it is not an event; it suits a same-instant hand-off
        such as a FIFO grant, which only has to keep its place in the
        ``(time, seq)`` order."""
        self._soon.append((self._seq, callback))

    def _soon_due(self) -> bool:
        """True when the head of the call_soon queue runs next."""
        heap = self._heap
        return bool(self._soon) and (
            not heap or heap[0][0] > self.now
            or heap[0][1] >= self._soon[0][0])

    # -- execution ---------------------------------------------------------
    def step(self) -> None:
        """Process the single next event (or call_soon callback)."""
        if self._soon_due():
            self._soon.popleft()[1]()
        else:
            time, _seq, event = heapq.heappop(self._heap)
            self.now = time
            hook = self.step_hook
            if hook is not None:
                hook(event)
            callbacks, event.callbacks = event.callbacks, None
            event._triggered = True
            event._processed = True
            for callback in callbacks:
                callback(event)
        if self._crash is not None:
            crash, self._crash = self._crash, None
            raise crash

    def run(self, until: Optional[float] = None) -> None:
        """Run until the event queue empties or the clock reaches ``until``."""
        if until is not None and until < self.now:
            raise SimulationError(f"run(until={until}) is in the past")
        if self.step_hook is not None:
            # Instrumented loop: identical semantics, routed through
            # step() so the hook sees every event.
            while self._heap or self._soon:
                if (until is not None and not self._soon
                        and self._heap[0][0] > until):
                    break
                self.step()
            if until is not None:
                self.now = max(self.now, until)
            return
        # Fast loop: step() inlined.  At ~80k events per wall second the
        # call overhead alone is measurable, and this loop is the single
        # hottest stretch of python in the repository.
        heap = self._heap
        soon = self._soon
        pop = heapq.heappop
        while heap or soon:
            if soon and (not heap or heap[0][0] > self.now
                         or heap[0][1] >= soon[0][0]):
                soon.popleft()[1]()
                if self._crash is not None:
                    crash, self._crash = self._crash, None
                    raise crash
                continue
            time = heap[0][0]
            if until is not None and time > until:
                break
            time, _seq, event = pop(heap)
            self.now = time
            callbacks, event.callbacks = event.callbacks, None
            event._triggered = True
            event._processed = True
            for callback in callbacks:
                callback(event)
            if self._crash is not None:
                crash, self._crash = self._crash, None
                raise crash
        if until is not None:
            self.now = max(self.now, until)
