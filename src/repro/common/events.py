"""A small discrete-event simulation kernel with coroutine processes.

Every hardware and software model in the reproduction runs on this
kernel.  Time is a bare integer; the Firefly models interpret one unit
as a 100 ns MBus cycle, but the kernel itself is unit-agnostic.

Processes are Python generators.  A process yields *waitables*:

``yield sim.timeout(n)``
    suspend for ``n`` time units.

``yield event``
    suspend until :meth:`Event.succeed` is called; the yield expression
    evaluates to the value passed to ``succeed``.

``yield resource.acquire(priority=...)``
    suspend until the resource grants this process; lower ``priority``
    numbers are served first (the MBus uses fixed per-cache priorities).

A process may also yield another :class:`Process` to join it (suspend
until that process returns), and its final ``return`` value becomes the
join value.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def pinger():
...     yield sim.timeout(5)
...     log.append(sim.now)
>>> _ = sim.process(pinger(), name="ping")
>>> sim.run()
>>> log
[5]

Pending events live in one binary heap of ``(time, seq, proc, value,
callback)`` entries.  ``seq`` is a global schedule counter, so events
at the same time dispatch in the order they were scheduled (FIFO);
``tests/test_events.py`` pins that order.

*Direct dispatch.*  When a process yields a timeout, an acquire of an
idle resource, an already-fired event or a finished process, its
wake-up time is known at once.  If that time is strictly earlier than
the heap head (or the heap is empty) and within the running drain's
horizon (the ``run_until`` limit; ``run`` has none), its entry would
be the very next one popped: a new entry carries the largest ``seq``,
so it loses every same-time tie.  The process then resumes in place
without touching the heap.  Dispatch order, ``now`` at each resume,
resource grants and waits are unchanged, and ``seq`` still counts one
schedule per wake-up.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Generator, Iterator, List, Optional, Tuple

from repro.common.errors import DeadlockError, SimulationError


class Event:
    """A one-shot condition that processes can wait on.

    An ``Event`` starts pending.  Calling :meth:`succeed` fires it,
    resuming every waiter with the supplied value.  Firing twice is an
    error (these model hardware strobes, which do not re-arm).
    """

    __slots__ = ("_sim", "_value", "_fired", "_waiters", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self._sim = sim
        self._value: Any = None
        self._fired = False
        self._waiters: List["Process"] = []
        self.name = name

    @property
    def fired(self) -> bool:
        """Whether :meth:`succeed` has been called."""
        return self._fired

    @property
    def value(self) -> Any:
        """The value the event fired with (``None`` before firing)."""
        return self._value

    def succeed(self, value: Any = None) -> None:
        """Fire the event, resuming all waiters at the current time."""
        if self._fired:
            raise SimulationError(f"event {self.name!r} fired twice")
        self._fired = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            self._sim._schedule(0, proc, value)


class _Timeout:
    """Internal waitable produced by :meth:`Simulator.timeout`."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: int, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        self.delay = delay
        self.value = value


class Process:
    """A running coroutine registered with the simulator.

    Processes should be created via :meth:`Simulator.process`.  Other
    processes may ``yield`` a Process to join it; the join value is
    whatever the generator returned.
    """

    __slots__ = ("_sim", "_gen", "name", "_done", "_result", "_joiners",
                 "_blocked_on", "_blocked_obj")

    def __init__(self, sim: "Simulator", gen: Generator, name: str) -> None:
        self._sim = sim
        self._gen = gen
        self.name = name
        self._done = False
        self._result: Any = None
        self._joiners: List["Process"] = []
        self._blocked_on: Optional[str] = None
        # The waited-on Resource/Process, kept only for the deadlock
        # report's wait-for edges (holder lookup).  Set together with
        # _blocked_on in the matching branches; the label's prefix says
        # whether it is current, so the hot branches never clear it.
        self._blocked_obj: Any = None

    @property
    def done(self) -> bool:
        """Whether the underlying generator has returned."""
        return self._done

    @property
    def result(self) -> Any:
        """The generator's return value (``None`` until done)."""
        return self._result

    def _step(self, send_value: Any) -> None:
        """Advance the generator, dispatching each waitable it yields.

        Each waitable resolves to a wake-up ``(when, value)`` that counts
        one schedule in ``sim._seq``, unless it must block (a held
        resource, a pending event, a running join): then the process is
        queued on that object and the step ends.  The wake-up entry
        would sort last among same-time entries, so it is the next one
        the drain loop pops exactly when ``when`` is strictly earlier
        than the heap head (or the heap is empty) and within the drain's
        horizon.  Then the process resumes in place, with no heap round
        trip; otherwise the entry is pushed.
        """
        sim = self._sim
        sim._current = self
        heap = sim._heap
        gen = self._gen
        while True:
            try:
                waitable = gen.send(send_value)
            except StopIteration as stop:
                self._done = True
                self._result = stop.value
                self._blocked_on = None
                sim._live.discard(self)
                joiners, self._joiners = self._joiners, []
                for j in joiners:
                    sim._schedule(0, j, self._result)
                return
            # Timeouts dominate every workload (one per simulated tick),
            # then acquires (one per bus transaction): exact class
            # checks, most frequent first.
            cls = waitable.__class__
            if cls is _Timeout:
                self._blocked_on = "timeout"
                when = sim.now + waitable.delay
                send_value = waitable.value
            elif cls is _AcquireRequest:
                resource = waitable.resource
                self._blocked_on = resource._blocked_label
                self._blocked_obj = resource
                if resource._holder is not None:
                    resource._enqueue(waitable, self)
                    return
                # No holder means an empty queue: granted now, no wait.
                resource._holder = self
                resource._grants += 1
                when = sim.now
                send_value = resource
            elif isinstance(waitable, Event):
                self._blocked_on = f"event:{waitable.name}"
                if not waitable._fired:
                    waitable._waiters.append(self)
                    return
                when = sim.now
                send_value = waitable._value
            elif isinstance(waitable, Process):
                self._blocked_on = f"join:{waitable.name}"
                self._blocked_obj = waitable
                if not waitable._done:
                    waitable._joiners.append(self)
                    return
                when = sim.now
                send_value = waitable._result
            else:
                raise SimulationError(
                    f"process {self.name!r} yielded unsupported waitable "
                    f"{waitable!r}")
            sim._seq += 1
            if (not heap or when < heap[0][0]) and when <= sim._horizon:
                sim.now = when
                continue
            heappush(heap, (when, sim._seq, self, send_value, None))
            return

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self._done else (self._blocked_on or "ready")
        return f"<Process {self.name} {state}>"


class _AcquireRequest:
    """Internal waitable produced by :meth:`Resource.acquire`."""

    __slots__ = ("resource", "priority")

    def __init__(self, resource: "Resource", priority: int) -> None:
        self.resource = resource
        self.priority = priority


class Resource:
    """A mutually-exclusive resource with priority queuing.

    The MBus is a ``Resource``: caches request it with their fixed
    hardware priority, and the arbiter grants the highest-priority
    (lowest number) waiter when the bus frees.  Ties are served in
    request order (FIFO), which matches a daisy-chained arbiter.
    """

    __slots__ = ("_sim", "name", "_holder", "_queue", "_seq", "_wait_cycles",
                 "_grants", "_blocked_label", "_requests")

    def __init__(self, sim: "Simulator", name: str = "resource") -> None:
        self._sim = sim
        self.name = name
        # Formatted once: _step assigns this on every acquire.
        self._blocked_label = f"resource:{name}"
        # Interned acquire waitables, keyed by priority: a request is
        # immutable and read-only to _enqueue, and each client acquires
        # at a fixed priority (the MBus priority chain), so one object
        # per priority serves every transaction.
        self._requests: dict = {}
        self._holder: Optional[Process] = None
        self._queue: List = []  # heap of (priority, seq, enqueue_time, proc)
        self._seq = 0
        self._wait_cycles = 0
        self._grants = 0

    @property
    def holder(self) -> Optional[Process]:
        """The process currently holding the resource, if any."""
        return self._holder

    @property
    def queue_length(self) -> int:
        """Number of processes waiting for a grant."""
        return len(self._queue)

    @property
    def total_wait(self) -> int:
        """Cumulative time units waiters spent queued before grant."""
        return self._wait_cycles

    @property
    def grants(self) -> int:
        """Number of grants issued so far."""
        return self._grants

    def acquire(self, priority: int = 0) -> _AcquireRequest:
        """Return a waitable that resolves when this process is granted."""
        request = self._requests.get(priority)
        if request is None:
            request = self._requests[priority] = _AcquireRequest(self, priority)
        return request

    def release(self, proc: Process) -> None:
        """Release the resource; the caller must be the holder."""
        if self._holder is not proc:
            raise SimulationError(
                f"{proc.name!r} released {self.name!r} held by "
                f"{self._holder.name if self._holder else None!r}"
            )
        self._holder = None
        if self._queue:
            _, _, enqueued, waiter = heappop(self._queue)
            self._holder = waiter
            self._grants += 1
            self._wait_cycles += self._sim.now - enqueued
            self._sim._schedule(0, waiter, self)

    def _enqueue(self, request: _AcquireRequest, proc: Process) -> None:
        # Only reached while the resource is held (Process._step grants
        # an idle resource in place), so the request always waits.
        self._seq += 1
        heappush(self._queue, (request.priority, self._seq, self._sim.now, proc))


class Simulator:
    """The event loop: an integer clock plus a binary heap of pending events.

    The kernel distinguishes *processes* (coroutines stepped by the
    loop) from *callbacks* (bare functions, used by periodic hardware
    like the MDC's poll timer).  Heap entries are ``(time, seq, proc,
    value, callback)`` tuples popped in ``(time, seq)`` order.
    """

    __slots__ = ("now", "_heap", "_seq", "_live", "_timeouts", "_current",
                 "_horizon")

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: List[Tuple] = []
        self._seq = 0
        self._live: set = set()
        # Interned value-less timeouts, keyed by delay.  _Timeout is
        # immutable once built and _step only reads it, so one object
        # per distinct delay serves every yield; models yield a timeout
        # per simulated tick, making this the kernel's hottest
        # allocation.  Delays in practice form a tiny set (tick widths,
        # bus cycles, residual instruction budgets).
        self._timeouts: dict = {}
        #: The process whose generator is currently being stepped (None
        #: while idle or inside a bare callback); lets scheduling errors
        #: name their culprit.
        self._current: Optional[Process] = None
        #: The latest time the running drain may dispatch: the
        #: ``run_until`` limit, or infinity under ``run``.  Process._step
        #: resumes a process in place only within it; -1 before any
        #: drain, so nothing does.
        self._horizon: float = -1

    # -- scheduling ---------------------------------------------------

    def _schedule(self, delay: int, proc: Optional[Process], value: Any = None,
                  callback: Optional[Callable[[], None]] = None) -> None:
        if delay < 0:
            raise SimulationError(
                f"cannot schedule {delay} units in the past "
                f"(now={self.now}{self._blame()})")
        self._seq += 1
        heappush(self._heap, (self.now + delay, self._seq, proc, value,
                              callback))

    def _blame(self) -> str:
        """``", process 'name'"`` when a process is being stepped."""
        current = self._current
        return f", process {current.name!r}" if current is not None else ""

    def process(self, gen: Generator, name: str = "proc") -> Process:
        """Register a generator as a process, starting it at the current time."""
        proc = Process(self, gen, name)
        self._live.add(proc)
        self._schedule(0, proc, None)
        return proc

    def call_at(self, delay: int, callback: Callable[[], None]) -> None:
        """Invoke ``callback()`` after ``delay`` time units."""
        self._schedule(delay, None, None, callback)

    def timeout(self, delay: int, value: Any = None) -> _Timeout:
        """Waitable: suspend the yielding process for ``delay`` units."""
        if value is None:
            cached = self._timeouts.get(delay)
            if cached is None:
                if delay < 0:
                    raise SimulationError(
                        f"negative timeout {delay} requested at "
                        f"now={self.now}{self._blame()}")
                cached = self._timeouts[delay] = _Timeout(delay)
            return cached
        if delay < 0:
            raise SimulationError(
                f"negative timeout {delay} requested at "
                f"now={self.now}{self._blame()}")
        return _Timeout(delay, value)

    def event(self, name: str = "") -> Event:
        """Create a fresh one-shot :class:`Event`."""
        return Event(self, name)

    def resource(self, name: str = "resource") -> Resource:
        """Create a priority-queued mutually-exclusive :class:`Resource`."""
        return Resource(self, name)

    # -- running ------------------------------------------------------

    def run(self, check_deadlock: bool = False) -> None:
        """Run until no pending events remain.

        With ``check_deadlock=True``, raise :class:`DeadlockError` if
        live processes remain blocked when the queue drains (useful in
        tests of the synchronisation primitives).
        """
        self._drain(inf)
        if check_deadlock and self._live:
            blocked = sorted(
                (p.name, p._blocked_on or "?")
                for p in self._live if not p.done
            )
            if blocked:
                raise DeadlockError(blocked, now=self.now,
                                    edges=self._wait_edges())

    def run_until(self, end_time: int) -> None:
        """Run events with timestamps ``<= end_time``, then set ``now`` there.

        Models use this for fixed-horizon measurement windows: the clock
        always lands exactly on ``end_time`` even if no event occurs
        then.
        """
        if end_time < self.now:
            raise SimulationError(
                f"run_until({end_time}) is in the past (now={self.now})"
            )
        self._drain(end_time)
        self.now = end_time

    def _drain(self, horizon: float) -> None:
        """Dispatch pending events in ``(time, seq)`` order up to ``horizon``.

        The loop runs once per queued event and dominates the wall-clock
        of every run, so the heap and ``heappop`` are bound locally.
        """
        self._horizon = horizon
        heap = self._heap
        pop = heappop
        while heap and heap[0][0] <= horizon:
            time, _, proc, value, callback = pop(heap)
            self.now = time
            if callback is None:
                if proc is not None:
                    proc._step(value)
            else:
                self._current = None
                callback()

    def _wait_edges(self):
        """(waiter, resource, holder) triples over the live processes.

        The holder is the owning process for resource waits and the
        joined process for joins; event waits have no holder (anyone
        may fire the event).
        """
        edges = []
        for proc in self._live:
            label = proc._blocked_on
            if proc.done or not label:
                continue
            obj = proc._blocked_obj
            holder = ""
            if label.startswith("resource:") and obj is not None:
                owner = obj.holder
                holder = owner.name if owner is not None else ""
            elif label.startswith("join:") and obj is not None:
                holder = obj.name
            edges.append((proc.name, label, holder))
        return sorted(edges)

    def peek(self) -> Optional[int]:
        """Timestamp of the next pending event, or ``None`` if idle."""
        return self._heap[0][0] if self._heap else None

    def blocked_processes(self) -> Iterator[Process]:
        """Yield live processes that have not finished (debug/tests)."""
        return iter(p for p in self._live if not p.done)
