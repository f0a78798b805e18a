"""Process-based discrete-event simulation engine.

The engine follows the classic event/process design used by SimPy:

* A :class:`Simulator` owns the clock and a priority queue of scheduled
  events.
* An :class:`Event` is a one-shot object that is *triggered* (succeeded or
  failed) and later *processed*, at which point its waiter and callbacks run.
* A :class:`Process` wraps a generator.  The generator yields events; the
  process resumes when the yielded event is processed.  The value of the
  event is sent into the generator (or, for failed events, the exception is
  thrown into it).
* Processes can be interrupted from the outside with
  :meth:`Process.interrupt`, which raises :class:`Interrupt` inside the
  generator at the current simulation time.  This is how the transaction
  model implements displacement (aborting an active transaction).

The engine holds exactly what the closed transaction processing model of
the paper needs: timeouts, processes, interrupts and one-shot events (the
FCFS resource lives in :mod:`repro.sim.resources`).

Hot-path design (the engine dominates experiment cell runtime, so the
common paths are aggressively slimmed; the golden-trajectory harness under
``tests/golden/`` pins the resulting behavior bit for bit):

* **Direct process resume.**  In the overwhelmingly common case exactly one
  process waits on an event (``yield sim.timeout(...)``, ``yield child``).
  That process is stored in the event's ``_waiter`` slot and resumed
  directly when the event is processed — no callback list is allocated, no
  indirection through bound methods.  Explicit :meth:`Event.add_callback`
  callbacks still work and run *after* the waiter only if the waiter
  registered first (registration order is preserved exactly).
* **Lazy callback lists.**  ``Event.callbacks`` is ``None`` until the first
  callback is registered (and ``None`` again once processed), so the two
  dominant event kinds — timeouts and process completions — never allocate
  a list.
* **Slim heap entries with an explicit tie-break.**  The pending queue
  holds ``(time, sequence, event)`` triples.  ``sequence`` is a monotonic
  counter assigned at scheduling time; it is the *documented contract* for
  equal-timestamp ordering: events scheduled at the same simulation time
  are processed strictly in the order they were scheduled (FIFO).  The
  counter also guarantees the heap never compares two :class:`Event`
  objects.  (Earlier revisions carried an unused ``priority`` field;
  ordering is by ``(time, sequence)`` only.)
* **Fast-path construction.**  :meth:`Simulator.timeout` initialises a
  :class:`Timeout`'s fields directly and schedules it without going through
  the generic ``succeed`` machinery, and process bootstrap/interrupt
  wake-ups use pre-triggered internal events built without redundant state
  checks.
* **Inlined run loop.**  :meth:`Simulator.run` processes events with local
  variable bindings instead of per-event method dispatch.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Optional


class SimulationError(RuntimeError):
    """Base class for errors raised by the simulation kernel."""


class Interrupt(Exception):
    """Raised inside a process generator when it is interrupted.

    The ``cause`` attribute carries the object passed to
    :meth:`Process.interrupt` and usually explains why the process was
    interrupted (e.g. a displacement decision by the load controller).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in simulated time.

    An event has three observable states:

    * *pending* -- created but not yet triggered;
    * *triggered* -- a value (or exception) has been set and the event has
      been scheduled on the simulator's queue;
    * *processed* -- the simulator has popped the event and executed its
      waiter and callbacks.

    Callbacks are callables of one argument (the event itself).  They run in
    the order they were appended.  ``callbacks`` is ``None`` while no
    callback is registered and again after the event has been processed; a
    process waiting on the event is held in the separate ``_waiter`` slot
    (see the module docstring) and runs in its registration position.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exception", "_triggered",
                 "_processed", "_waiter")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = None
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False
        self._processed = False
        self._waiter: Optional["Process"] = None

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is on the event queue."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the event's waiter/callbacks have been executed."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The success value of the event.

        Raises the failure exception if the event failed, and
        :class:`SimulationError` if the event has not been triggered yet.
        """
        if not self._triggered:
            raise SimulationError("event value read before the event was triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, or ``None`` if the event succeeded."""
        return self._exception

    # ------------------------------------------------------------------
    # triggering
    # ------------------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError("event has already been triggered")
        self._value = value
        self._triggered = True
        sim = self.sim
        seq = sim._sequence
        sim._sequence = seq + 1
        heappush(sim._queue, (sim._now, seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self._triggered:
            raise SimulationError("event has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() expects an exception instance, got {exception!r}")
        self._exception = exception
        self._triggered = True
        sim = self.sim
        seq = sim._sequence
        sim._sequence = seq + 1
        heappush(sim._queue, (sim._now, seq, self))
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback`` to run when the event is processed.

        If the event has already been processed the callback runs
        immediately (still at the current simulation time).
        """
        if self._processed:
            callback(self)
        elif self.callbacks is None:
            self.callbacks = [callback]
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.sim.now:.6g}>"


class Timeout(Event):
    """An event that succeeds after a fixed delay.

    Built only by :meth:`Simulator.timeout`, which initialises the fields
    directly and schedules the event without the generic ``succeed`` checks
    (a fresh timeout cannot have been triggered before).
    """

    __slots__ = ("delay",)


class Process(Event):
    """A running simulation process wrapping a generator.

    The process itself is an event: it is triggered when the generator
    terminates (the generator's return value becomes the event value) and it
    can therefore be waited on by other processes (``yield some_process``).
    """

    __slots__ = ("generator", "name", "_target", "_resume_callback")

    def __init__(self, sim: "Simulator", generator: Generator[Event, Any, Any],
                 name: Optional[str] = None):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                "Process expects a generator (did you forget to call the "
                f"process function?), got {generator!r}"
            )
        # inline Event.__init__ -- one process is created per transaction
        # execution, so the extra constructor frame is measurable
        self.sim = sim
        self.callbacks = None
        self._value = None
        self._exception = None
        self._triggered = False
        self._processed = False
        self._waiter = None
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._resume_callback = self._resume
        # Kick the process off at the current time with a pre-triggered
        # internal event carrying this process as its direct waiter; the
        # wake-up is the process's first target.
        sim._schedule_wakeup(self, None)

    # ------------------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a process that has already finished is an error; callers
        should check :attr:`is_alive` first.  The event the process is
        currently waiting on is abandoned: the interrupt wake-up becomes the
        process's target, and :meth:`_resume` ignores every other event.  A
        second interrupt before the first is delivered supersedes it, and a
        process interrupted before its bootstrap fails without running.
        """
        if self._triggered:
            raise SimulationError(f"cannot interrupt terminated process {self.name!r}")
        self.sim._schedule_wakeup(self, Interrupt(cause))

    # ------------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``.

        Only the process's current target may resume it; an event the
        process abandoned (see :meth:`interrupt`) is ignored.
        """
        if event is not self._target:
            return
        try:
            if event._exception is None:
                next_target = self.generator.send(event._value)
            else:
                next_target = self.generator.throw(event._exception)
        except StopIteration as stop:
            if not self._triggered:
                self.succeed(stop.value)
            return
        except Interrupt as unhandled:
            # The process chose not to handle an interrupt: treat as failure.
            if not self._triggered:
                self.fail(unhandled)
            return
        except BaseException as exc:
            if not self._triggered:
                self.fail(exc)
            raise
        if self._target is not event:
            # interrupted while running: the wake-up is the target and the
            # event just yielded is abandoned
            return

        sim = self.sim
        if isinstance(next_target, Event) and next_target.sim is sim:
            self._target = next_target
            if next_target._processed:
                # same semantics as registering a callback on a processed
                # event: resume immediately at the current time
                self._resume(next_target)
            elif next_target._waiter is None and next_target.callbacks is None:
                # common case: sole consumer -- direct resume, no list
                next_target._waiter = self
            elif next_target.callbacks is None:
                next_target.callbacks = [self._resume_callback]
            else:
                next_target.callbacks.append(self._resume_callback)
            return

        if isinstance(next_target, Event):
            error = SimulationError(
                f"process {self.name!r} yielded an event bound to a different simulator"
            )
        else:
            error = SimulationError(
                f"process {self.name!r} yielded {next_target!r}; processes must yield Event objects"
            )
        self.generator.close()
        self.fail(error)
        raise error

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self._triggered else "alive"
        return f"<Process {self.name!r} {state} at t={self.sim.now:.6g}>"


class Simulator:
    """The discrete-event simulation executive.

    Responsibilities:

    * maintain the simulation clock (:attr:`now`);
    * maintain the pending-event queue ordered by ``(time, sequence)``;
    * run events, their waiting processes and their callbacks in
      deterministic order;
    * provide factory helpers (:meth:`timeout`, :meth:`process`,
      :meth:`event`) so user code never touches the queue directly.

    The executive is single-threaded and deterministic: two runs with the
    same seeds produce identical traces.  **Equal-timestamp ordering
    contract:** events scheduled at the same simulation time are processed
    strictly in scheduling order, enforced by the monotonic ``sequence``
    counter carried in every heap entry (not by heap insertion accidents).
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._sequence = 0

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def queue_length(self) -> int:
        """Number of triggered-but-unprocessed events."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event bound to this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now.

        This is the hottest allocation in the engine, so the fields are set
        inline here rather than in a :class:`Timeout` constructor.
        """
        if delay < 0:
            raise ValueError(f"timeout delay must be non-negative, got {delay}")
        event = Timeout.__new__(Timeout)
        event.sim = self
        event.callbacks = None
        event._value = value
        event._exception = None
        event._triggered = True
        event._processed = False
        event._waiter = None
        event.delay = delay = float(delay)
        seq = self._sequence
        self._sequence = seq + 1
        heappush(self._queue, (self._now + delay, seq, event))
        return event

    def process(self, generator: Generator[Event, Any, Any], name: Optional[str] = None) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    # ------------------------------------------------------------------
    # scheduling / running
    # ------------------------------------------------------------------
    def _schedule_wakeup(self, process: Process, exception: Optional[BaseException]) -> None:
        """Schedule an internal pre-triggered event that resumes ``process`` now.

        Used for process bootstrap (``exception=None`` sends ``None`` into
        the generator) and interrupts (the exception is thrown into it).
        The event is built directly -- it is internal, already triggered,
        and its sole consumer is the process itself, whose target it
        becomes.
        """
        wakeup = Event.__new__(Event)
        wakeup.sim = self
        wakeup.callbacks = None
        wakeup._value = None
        wakeup._exception = exception
        wakeup._triggered = True
        wakeup._processed = False
        wakeup._waiter = process
        process._target = wakeup
        seq = self._sequence
        self._sequence = seq + 1
        heappush(self._queue, (self._now, seq, wakeup))

    def run(self, until: Optional[float] = None) -> float:
        """Run the simulation.

        If ``until`` is a number the clock is advanced to exactly that time
        (even if no event is scheduled there).  With ``until=None`` the
        simulation runs until the event queue drains, which for closed models
        with terminal loops means forever -- always pass ``until`` for the
        transaction model.

        Returns the simulation time at which the run stopped.
        """
        if until is not None:
            until = float(until)
            if until < self._now:
                raise ValueError(f"until={until} lies in the past (now={self._now})")
        queue = self._queue
        pop = heappop
        limit = float("inf") if until is None else until
        now = self._now
        while queue:
            entry = pop(queue)
            time = entry[0]
            if time > limit:
                heappush(queue, entry)
                break
            if time > now:
                self._now = now = time
            elif time < now - 1e-12:
                raise SimulationError("event scheduled in the past; queue corrupted")
            event = entry[2]
            event._processed = True
            waiter = event._waiter
            if waiter is not None:
                event._waiter = None
                waiter._resume(event)
            callbacks = event.callbacks
            if callbacks is not None:
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
        if until is not None and self._now < until:
            self._now = until
        return self._now
