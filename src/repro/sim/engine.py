"""Core event loop: simulator, events, timeouts and processes.

Time is a ``float`` in **seconds**.  Ties are broken by insertion order,
so a run is fully deterministic for a given program.

The generator protocol: a process function is a generator that yields
:class:`Event` instances.  When the yielded event triggers, the process
resumes; the event's value is sent into the generator (or its exception
is thrown in).  A process is itself an :class:`Event` that triggers when
the generator returns, carrying the return value.

Work that is one step per wake-up needs no generator:
:meth:`Simulator.call_later` schedules a plain ``fn(value)`` call, in
the same insertion order as everything else, and builds no event.

Scheduling is a **calendar of per-instant buckets**: every distinct
timestamp owns a plain list of entries in insertion order, and a small
heap orders only the distinct timestamps.  An entry is an
:class:`Event` or an ``(fn, value)`` tuple: ``call_later`` and a
process's first resume append the tuple, which the run loop calls after
one class check; it cannot be cancelled.  Popping therefore costs one
heap operation per *instant* instead of one per *event* — a collective
round where 1k ranks all wake at the same time is a single heap pop
followed by a flat list sweep.  The documented tie-break (insertion
order within one timestamp) is exactly the append order of the bucket,
so traces are byte-identical to the classic single-heap scheduler.

There is one run loop and it carries no instrumentation hook: the
tracer, fault and sanitizer planes hook the layers above (spans,
transfers, buffers), never the dispatch of an event.
What observers want from the loop — how many events it dispatched — the
simulator counts itself, per swept batch, not per event
(:attr:`Simulator.event_count`).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import DeadlockError, SimulationError

__all__ = ["Simulator", "Event", "Timeout", "Process", "AllOf", "AnyOf"]

_PENDING = object()


class Event:
    """A one-shot occurrence on the simulation timeline.

    An event starts *pending*; it is *triggered* exactly once, either
    via :meth:`succeed` (carrying a value) or :meth:`fail` (carrying an
    exception).  Callbacks registered before triggering run, in order,
    when the simulator pops the event off the schedule.
    """

    __slots__ = ("sim", "callbacks", "_cb1", "_value", "_ok", "_defused",
                 "_cancelled", "_processed")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        # The overwhelmingly common case is a single waiter, so the
        # first callback lives in ``_cb1`` and the list is only
        # allocated when a second one arrives.
        self._cb1: Optional[Callable[["Event"], None]] = None
        self.callbacks: Optional[list[Callable[["Event"], None]]] = None
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._defused = False
        self._cancelled = False
        self._processed = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value/exception (even if callbacks
        have not run yet)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> Optional[bool]:
        """True for success, False for failure, None while pending."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value accessed before it triggered")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        # Inlined _schedule(self): succeed() fires once per process
        # completion and once per condition/gate, so the extra call
        # frame shows up at rank counts in the thousands.
        sim = self.sim
        t = sim._now
        bucket = sim._buckets.get(t)
        if bucket is None:
            sim._buckets[t] = [self]
            heapq.heappush(sim._times, t)
        else:
            bucket.append(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every waiting process.  If
        nothing ever waits on a failed event the failure would be lost,
        so the simulator raises it at the end of the run unless the
        event is :meth:`defused <defuse>`.
        """
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exc!r}")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exc
        self.sim._schedule(self)
        self.sim._failed_events.append(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so the simulator will not
        re-raise its exception at the end of the run."""
        self._defused = True

    def cancel(self) -> None:
        """Discard a scheduled-but-unprocessed event.

        A cancelled event is silently dropped from the schedule:
        its callbacks never run and — crucially — popping it does *not*
        advance the clock, so an unused guard timer (e.g. a rendezvous
        timeout that never fired) leaves the timeline bit-identical to a
        run that never created it.  Cancelling an event something still
        waits on would strand that waiter; only cancel events whose
        outcome is no longer needed.
        """
        self._cancelled = True

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event is processed.  If the event
        has already been processed the callback runs immediately."""
        if self._processed:
            fn(self)
        elif self.callbacks is not None:
            self.callbacks.append(fn)
        elif self._cb1 is None:
            self._cb1 = fn
        else:
            self.callbacks = [self._cb1, fn]
            self._cb1 = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if not self.triggered else ("ok" if self._ok else "failed")
        return f"<{type(self).__name__} {state} at t={self.sim.now:.9f}>"


class _Start:
    """What a process's first resume reads as its wake-up: a success
    carrying ``None``.  One constant serves every process."""

    __slots__ = ()
    _ok = True
    _value = None


_START = _Start()


class Timeout(Event):
    """An event that triggers ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Flattened Event.__init__ + _schedule: a timeout is the most
        # frequently created event of a large run, so the two extra
        # call frames are measurable at 1k+ ranks.
        self.sim = sim
        self._cb1 = None
        self.callbacks = None
        self._ok = True
        self._value = value
        self._defused = False
        self._cancelled = False
        self._processed = False
        d = self.delay = float(delay)
        t = sim._now + d
        bucket = sim._buckets.get(t)
        if bucket is None:
            sim._buckets[t] = [self]
            heapq.heappush(sim._times, t)
        else:
            bucket.append(self)


class Process(Event):
    """Wraps a generator and drives it through the event loop.

    The process triggers (as an event) when the generator returns; the
    StopIteration value becomes the event value.  Unhandled exceptions in
    the generator fail the process event, propagating to any waiter.
    """

    __slots__ = ("gen", "_name", "_resume_cb")

    def __init__(self, sim: "Simulator", gen: Generator, name: Any = "",
                 delay: float = 0.0):
        """``name`` is a string, or a tuple of parts that :attr:`name`
        joins on demand (so a hot spawn site formats nothing).  The
        first resume runs ``delay`` seconds from now."""
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"Process needs a generator, got {type(gen).__name__}; "
                "did you call a plain function instead of a generator function?"
            )
        # Flattened Event.__init__ plus the init-event acquire and
        # schedule: spawn storms create thousands of processes per
        # simulated collective round, so every call frame counts here.
        self.sim = sim
        self._cb1 = None
        self.callbacks = None
        self._value = _PENDING
        self._ok = None
        self._defused = False
        self._cancelled = False
        self._processed = False
        self.gen = gen
        self._name = name or getattr(gen, "__name__", "process")
        # One bound method for the process's lifetime instead of a
        # fresh allocation at every yield.  It makes a reference cycle
        # with the process, which _finish() breaks.
        self._resume_cb = rc = self._resume
        # Kick off on a scheduling round ``delay`` from now: a calendar
        # entry, no event.
        init = (rc, _START)
        t = sim._now + delay
        bucket = sim._buckets.get(t)
        if bucket is None:
            sim._buckets[t] = [init]
            heapq.heappush(sim._times, t)
        else:
            bucket.append(init)

    @property
    def name(self) -> str:
        name = self._name
        return "".join(map(str, name)) if isinstance(name, tuple) else name

    # -- internal ------------------------------------------------------
    def _resume(self, event: Event) -> None:
        sim = self.sim
        sim._active_process = self
        try:
            if event._ok:
                target = self.gen.send(event._value)
            else:
                event._defused = True
                target = self.gen.throw(event._value)
        except StopIteration as stop:
            sim._active_process = None
            self._finish()
            if self._cb1 is None and self.callbacks is None:
                # Nobody waits on this process: it is done without a
                # schedule entry (a later waiter sees a processed event
                # and runs at once).
                self._ok = True
                self._value = stop.value
                self._processed = True
            else:
                self.succeed(stop.value)
            return
        except BaseException as exc:
            sim._active_process = None
            self._finish()
            self.fail(exc)
            return
        sim._active_process = None
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield Event objects"
            )
        if target.sim is not sim:
            raise SimulationError("yielded event belongs to a different Simulator")
        target.add_callback(self._resume_cb)

    def _finish(self) -> None:
        """Drop the generator and the cached bound method, so a
        finished process is freed by reference counting instead of
        waiting for the cycle collector.  Nothing wakes a finished
        process: it returned from the last event it waited on.  The
        tracer drops what it kept under this process for the same
        reason."""
        self.gen = self._resume_cb = None
        tracer = self.sim.tracer
        if tracer is not None:
            tracer._on_process_done(self)


class _Condition(Event):
    """Shared machinery for AllOf / AnyOf."""

    __slots__ = ("events", "_n_done")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        # Flattened Event.__init__; conditions gate every collective
        # round, one per rank.
        self.sim = sim
        self._cb1 = None
        self.callbacks = None
        self._value = _PENDING
        self._ok = None
        self._defused = False
        self._cancelled = False
        self._processed = False
        evs = self.events = list(events)
        self._n_done = 0
        if not evs:
            self.succeed({})
            return
        check = self._check
        for ev in evs:
            ev.add_callback(check)

    def _collect(self) -> dict:
        return {i: ev._value for i, ev in enumerate(self.events) if ev.triggered and ev._ok}

    def _check(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when *all* child events have triggered successfully.

    The value is a dict mapping the child's index to its value.  A child
    failure fails the condition immediately.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                # The condition already resolved (possibly by another
                # child's failure); this late failure has been raced
                # away and has no other observer.
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._n_done += 1
        if self._n_done == len(self.events):
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Triggers when the *first* child event triggers.

    The value is a dict of every child already triggered at that moment.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self.succeed(self._collect())


class Simulator:
    """Event loop and clock.

    Usage::

        sim = Simulator()

        def hello(sim):
            yield sim.timeout(1.5)
            return "done"

        proc = sim.process(hello(sim))
        sim.run()
        assert sim.now == 1.5 and proc.value == "done"

    The schedule is a calendar: ``_buckets`` maps each pending timestamp
    to the list of entries (events and ``(fn, value)`` calls) scheduled
    for that instant, in insertion order, and ``_times`` is a min-heap
    over the distinct timestamps.
    A timestamp is pushed onto the heap exactly once per bucket
    creation; the bucket being swept is popped out of the dict first, so
    a same-instant schedule during the sweep opens a fresh bucket (and
    re-pushes the timestamp), which the loop then drains before moving
    on — identical ordering to the classic (time, counter) heap.
    """

    def __init__(self):
        self._now = 0.0
        self._buckets: dict[float, list] = {}
        self._times: list[float] = []
        # A bucket run() left unfinished (a callback raised, or `until`
        # came first) and the cursor where the next run() resumes it;
        # the time of the bucket being swept.
        self._active_batch: Optional[list] = None
        self._active_pos = 0
        self._active_t = 0.0
        self._active_process: Optional[Process] = None
        self._failed_events: list[Event] = []
        self._event_count = 0
        self.tracer = None  # attached by repro.sim.trace.Tracer
        self.faults = None  # attached by repro.faults.FaultInjector
        self.asan = None  # attached by repro.check.asan.BufferSanitizer

    # -- clock ---------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    @property
    def event_count(self) -> int:
        """Calendar entries dispatched so far, events and calls alike
        (cancelled events never are).  Inside
        :meth:`run` the count is published when a batch ends, so a
        callback reads the total up to the current instant's batch."""
        return self._event_count

    # -- factories ------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: Generator, name: Any = "",
                delay: float = 0.0) -> Process:
        """Spawn a process whose first resume runs ``delay`` from now."""
        proc = Process(self, gen, name, delay)
        if self.tracer is not None:
            # Spawned work inherits the spawner's open span as its
            # parent, keeping kernel/partition workers inside the
            # pipeline step that launched them.
            self.tracer._on_process_spawn(proc)
        return proc

    def call_later(self, delay: float, fn: Callable[[Any], None],
                   value: Any = None) -> None:
        """Run ``fn(value)`` ``delay`` seconds from now.  The cheap
        alternative to a process for work that is one step per wake-up:
        the calendar holds the ``(fn, value)`` pair itself, so there is
        no event to wait on or cancel (a guard timer that may be
        withdrawn is a :meth:`timeout`)."""
        if delay < 0:
            raise SimulationError(f"negative call_later delay: {delay}")
        t = self._now + delay
        bucket = self._buckets.get(t)
        if bucket is None:
            self._buckets[t] = [(fn, value)]
            heapq.heappush(self._times, t)
        else:
            bucket.append((fn, value))

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        t = self._now + delay
        bucket = self._buckets.get(t)
        if bucket is None:
            self._buckets[t] = [event]
            heapq.heappush(self._times, t)
        else:
            bucket.append(event)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the schedule empties, or until time ``until``.

        Raises any un-defused failure once the loop exits, so a crashed
        process cannot be silently dropped.
        """
        if until is not None and until < self._now:
            raise SimulationError(f"until={until} is in the past (now={self._now})")
        # Inlined hot loop: this processes every event of a run, so the
        # per-event attribute and function-call overhead is paid
        # millions of times in a long simulation.  The batch cursor
        # lives in locals; the finally block re-publishes it so an
        # exception escaping a callback leaves the schedule resumable.
        # Dispatched entries are counted per batch, swept minus cancelled
        # (``start`` steps over those): no counter on the per-event path.
        # An ``(fn, value)`` entry is a call and is never cancelled.
        buckets = self._buckets
        times = self._times
        pop_time = heapq.heappop
        call = tuple  # the class of a ``call_later`` entry
        batch = self._active_batch
        pos = start = self._active_pos
        self._active_batch = None
        try:
            while True:
                if batch is None:
                    while times:
                        t = pop_time(times)
                        cand = buckets.pop(t)
                        for i in range(len(cand)):
                            entry = cand[i]
                            if entry.__class__ is call or not entry._cancelled:
                                break
                        else:
                            # Every event at t was cancelled — drop the
                            # bucket without advancing the clock.
                            continue
                        batch = cand
                        pos = start = i
                        self._active_t = t
                        break
                    else:
                        break  # the schedule is exhausted
                if until is not None and self._active_t > until:
                    self._now = until
                    break
                self._now = self._active_t
                n = len(batch)
                while pos < n:
                    event = batch[pos]
                    pos += 1
                    if event.__class__ is call:
                        fn, value = event
                        fn(value)
                        n = len(batch)
                        continue
                    if event._cancelled:
                        start += 1
                        continue
                    event._processed = True
                    cb = event._cb1
                    if cb is not None:
                        event._cb1 = None
                        cb(event)
                    elif event.callbacks is not None:
                        callbacks, event.callbacks = event.callbacks, None
                        for cb in callbacks:
                            cb(event)
                    # Callbacks may have scheduled at the current
                    # instant, growing the live batch.
                    n = len(batch)
                self._event_count += n - start
                batch = None
        finally:
            if batch is not None:
                self._event_count += pos - start
                self._active_batch = batch
                self._active_pos = pos
        for ev in self._failed_events:
            if not ev._defused:
                raise ev._value
        self._failed_events.clear()

    def run_process(self, gen: Generator, name: str = "") -> Any:
        """Convenience: spawn a process, run to completion, return its value.

        Raises :class:`DeadlockError` if the schedule empties while the
        process is still waiting (e.g. an unmatched receive).
        """
        proc = self.process(gen, name=name)
        self.run()
        if not proc.triggered:
            raise DeadlockError(
                f"simulation ran out of events while process {proc.name!r} was still waiting"
            )
        if not proc._ok:
            raise proc._value
        return proc._value
