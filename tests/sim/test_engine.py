"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.engine import (
    Interrupt,
    Process,
    SimulationError,
    Simulator,
)


def after(sim, delay, action):
    """Run ``action()`` when a timeout ``delay`` from now is processed."""
    sim.timeout(delay).add_callback(lambda _event: action())


class TestSimulatorBasics:
    def test_clock_starts_at_zero(self):
        sim = Simulator()
        assert sim.now == 0.0

    def test_run_until_advances_clock_without_events(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_until_in_the_past_raises(self):
        sim = Simulator()
        sim.run(until=5.0)
        with pytest.raises(ValueError):
            sim.run(until=1.0)

    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        after(sim, 3.0, lambda: order.append("late"))
        after(sim, 1.0, lambda: order.append("early"))
        after(sim, 2.0, lambda: order.append("middle"))
        sim.run(until=5.0)
        assert order == ["early", "middle", "late"]

    def test_same_time_events_run_in_schedule_order(self):
        sim = Simulator()
        order = []
        after(sim, 1.0, lambda: order.append("first"))
        after(sim, 1.0, lambda: order.append("second"))
        sim.run(until=2.0)
        assert order == ["first", "second"]

    def test_run_stops_exactly_at_until(self):
        sim = Simulator()
        fired = []
        after(sim, 10.0, lambda: fired.append(True))
        sim.run(until=5.0)
        assert sim.now == 5.0
        assert not fired
        sim.run(until=20.0)
        assert fired

    def test_simulator_takes_no_arguments(self):
        with pytest.raises(TypeError):
            Simulator(5.0)

    def test_run_returns_the_stop_time(self):
        sim = Simulator()
        assert sim.run(until=7.5) == 7.5
        assert sim.run(until=9.0) == 9.0

    def test_run_without_until_drains_the_queue(self):
        sim = Simulator()
        sim.timeout(1.0)
        sim.timeout(4.0)
        assert sim.run() == 4.0
        assert sim.queue_length == 0

    def test_queue_length_counts_triggered_events_only(self):
        sim = Simulator()
        sim.timeout(1.0)
        sim.event()  # pending: not on the queue
        sim.event().succeed()
        assert sim.queue_length == 2
        sim.run(until=0.0)
        assert sim.queue_length == 1


class TestEvent:
    def test_succeed_sets_value(self):
        sim = Simulator()
        event = sim.event()
        event.succeed(99)
        sim.run(until=0.0)
        assert event.ok
        assert event.value == 99

    def test_value_before_trigger_raises(self):
        sim = Simulator()
        event = sim.event()
        with pytest.raises(SimulationError):
            _ = event.value

    def test_double_succeed_raises(self):
        sim = Simulator()
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_records_exception(self):
        sim = Simulator()
        event = sim.event()
        error = RuntimeError("boom")
        event.fail(error)
        sim.run(until=0.0)
        assert not event.ok
        assert event.exception is error
        with pytest.raises(RuntimeError):
            _ = event.value

    def test_fail_requires_exception_instance(self):
        sim = Simulator()
        event = sim.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_callback_after_processed_runs_immediately(self):
        sim = Simulator()
        event = sim.event()
        event.succeed("x")
        sim.run(until=0.0)
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == ["x"]

    def test_timeout_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    def test_timeout_fires_at_the_right_time(self):
        sim = Simulator()
        times = []
        timeout = sim.timeout(2.5)
        timeout.add_callback(lambda _e: times.append(sim.now))
        sim.run(until=5.0)
        assert times == [pytest.approx(2.5)]

    def test_trigger_after_fail_raises(self):
        sim = Simulator()
        event = sim.event()
        event.fail(RuntimeError("first"))
        with pytest.raises(SimulationError):
            event.succeed()
        with pytest.raises(SimulationError):
            event.fail(RuntimeError("second"))

    def test_states_progress_from_pending_to_processed(self):
        sim = Simulator()
        event = sim.event()
        assert (event.triggered, event.processed) == (False, False)
        event.succeed()
        assert (event.triggered, event.processed) == (True, False)
        sim.run(until=0.0)
        assert (event.triggered, event.processed) == (True, True)

    def test_callbacks_run_in_registration_order(self):
        sim = Simulator()
        event = sim.event()
        order = []
        for name in ("a", "b", "c"):
            event.add_callback(lambda _e, n=name: order.append(n))
        event.succeed()
        sim.run(until=0.0)
        assert order == ["a", "b", "c"]
        assert event.callbacks is None

    def test_callback_registered_before_a_waiter_runs_first(self):
        sim = Simulator()
        event = sim.event()
        order = []
        event.add_callback(lambda _e: order.append("callback"))

        def waiter():
            yield event
            order.append("process")

        sim.process(waiter())
        after(sim, 1.0, event.succeed)
        sim.run(until=2.0)
        assert order == ["callback", "process"]

    def test_waiter_registered_before_a_callback_runs_first(self):
        sim = Simulator()
        event = sim.event()
        order = []

        def waiter():
            yield event
            order.append("process")

        sim.process(waiter())
        sim.run(until=0.5)  # bootstrap: the process now waits on the event
        event.add_callback(lambda _e: order.append("callback"))
        after(sim, 1.0, event.succeed)
        sim.run(until=2.0)
        assert order == ["process", "callback"]

    def test_timeout_records_its_delay_and_value(self):
        sim = Simulator()
        timeout = sim.timeout(2, value="payload")
        assert timeout.delay == 2.0
        assert isinstance(timeout.delay, float)
        assert timeout.triggered and not timeout.processed
        sim.run(until=3.0)
        assert timeout.value == "payload"

    def test_zero_delay_timeout_fires_at_the_current_time(self):
        sim = Simulator()
        sim.run(until=3.0)
        times = []
        sim.timeout(0.0).add_callback(lambda _e: times.append(sim.now))
        sim.run(until=4.0)
        assert times == [3.0]


class TestProcess:
    def test_process_runs_and_returns_value(self):
        sim = Simulator()

        def worker():
            yield sim.timeout(1.0)
            yield sim.timeout(2.0)
            return "done"

        process = sim.process(worker())
        sim.run(until=10.0)
        assert not process.is_alive
        assert process.value == "done"
        assert sim.now == 10.0

    def test_process_requires_generator(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            Process(sim, lambda: None)

    def test_processes_interleave_by_time(self):
        sim = Simulator()
        log = []

        def worker(name, delay):
            for _ in range(3):
                yield sim.timeout(delay)
                log.append((name, sim.now))

        sim.process(worker("fast", 1.0))
        sim.process(worker("slow", 2.5))
        sim.run(until=10.0)
        assert log == [
            ("fast", 1.0), ("fast", 2.0), ("slow", 2.5),
            ("fast", 3.0), ("slow", 5.0), ("slow", 7.5),
        ]

    def test_process_can_wait_on_another_process(self):
        sim = Simulator()

        def child():
            yield sim.timeout(3.0)
            return 7

        def parent():
            value = yield sim.process(child())
            return value * 2

        parent_process = sim.process(parent())
        sim.run(until=10.0)
        assert parent_process.value == 14

    def test_yielding_non_event_fails_process(self):
        sim = Simulator()

        def bad():
            yield 42

        process = sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run(until=1.0)
        assert not process.is_alive
        assert isinstance(process.exception, SimulationError)

    def test_yielding_foreign_event_fails_process(self):
        sim = Simulator()
        other = Simulator()

        def bad():
            yield other.timeout(1.0)

        process = sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run(until=1.0)
        assert isinstance(process.exception, SimulationError)

    def test_exception_in_process_propagates_and_is_recorded(self):
        sim = Simulator()

        def bad():
            yield sim.timeout(1.0)
            raise ValueError("inner failure")

        process = sim.process(bad())
        with pytest.raises(ValueError, match="inner failure"):
            sim.run(until=2.0)
        assert isinstance(process.exception, ValueError)

    def test_failed_event_is_thrown_into_process(self):
        sim = Simulator()
        trigger = sim.event()
        caught = []

        def worker():
            try:
                yield trigger
            except RuntimeError as error:
                caught.append(str(error))

        sim.process(worker())
        after(sim, 1.0, lambda: trigger.fail(RuntimeError("failed event")))
        sim.run(until=2.0)
        assert caught == ["failed event"]

    def test_process_name_defaults_to_the_generator_function(self):
        sim = Simulator()

        def worker():
            yield sim.timeout(1.0)

        assert sim.process(worker()).name == "worker"
        assert sim.process(worker(), name="custom").name == "custom"

    def test_yielding_a_processed_event_resumes_immediately(self):
        sim = Simulator()
        done = sim.event()
        done.succeed("ready")
        sim.run(until=1.0)
        seen = []

        def late():
            value = yield done
            seen.append((value, sim.now))

        sim.process(late())
        sim.run(until=2.0)
        assert seen == [("ready", 1.0)]

    def test_failed_child_is_thrown_into_its_parent(self):
        sim = Simulator()
        caught = []

        def child():
            yield sim.timeout(10.0)

        def parent():
            try:
                yield child_process
            except Interrupt as interrupt:
                caught.append((interrupt.cause, sim.now))

        child_process = sim.process(child())
        sim.process(parent())
        after(sim, 2.0, lambda: child_process.interrupt("child stopped"))
        sim.run(until=5.0)
        assert caught == [("child stopped", 2.0)]


class TestInterrupt:
    def test_interrupt_wakes_process_with_cause(self):
        sim = Simulator()
        causes = []

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt as interrupt:
                causes.append(interrupt.cause)

        process = sim.process(sleeper())
        after(sim, 1.0, lambda: process.interrupt("wake up"))
        sim.run(until=5.0)
        assert causes == ["wake up"]
        assert sim.now == 5.0

    def test_interrupt_terminated_process_raises(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(1.0)

        process = sim.process(quick())
        sim.run(until=2.0)
        with pytest.raises(SimulationError):
            process.interrupt()

    def test_unhandled_interrupt_fails_the_process(self):
        sim = Simulator()

        def sleeper():
            yield sim.timeout(100.0)

        process = sim.process(sleeper())
        after(sim, 1.0, lambda: process.interrupt("no handler"))
        sim.run(until=5.0)
        assert not process.is_alive
        assert isinstance(process.exception, Interrupt)

    def test_process_continues_after_handling_interrupt(self):
        sim = Simulator()
        log = []

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt:
                log.append(("interrupted", sim.now))
            yield sim.timeout(2.0)
            log.append(("resumed", sim.now))

        process = sim.process(sleeper())
        after(sim, 3.0, lambda: process.interrupt())
        sim.run(until=10.0)
        assert log == [("interrupted", 3.0), ("resumed", 5.0)]

    def test_interrupt_abandons_an_event_shared_through_callbacks(self):
        """An interrupted process is never resumed by the event it abandoned.

        A and B wait on one event through its callback list; A, resumed
        first, interrupts B.  B must see only the interrupt, at t=1, and
        its next wait must resume it normally.
        """
        sim = Simulator()
        shared = sim.timeout(1.0)
        shared.add_callback(lambda _event: None)  # waiters join the callback list
        seen = []

        def a():
            yield shared
            b_process.interrupt("stop")

        def b():
            try:
                value = yield shared
                seen.append(("value", value, sim.now))
            except Interrupt as interrupt:
                seen.append(("interrupt", interrupt.cause, sim.now))
            yield sim.timeout(1.0)
            seen.append(("after", sim.now))

        sim.process(a())
        b_process = sim.process(b())
        sim.run(until=5.0)
        assert seen == [("interrupt", "stop", 1.0), ("after", 2.0)]

    def test_self_interrupt_abandons_the_next_wait(self):
        sim = Simulator()
        seen = []

        def worker():
            me.interrupt("self")
            try:
                yield sim.timeout(3.0)
                seen.append(("slept", sim.now))
            except Interrupt as interrupt:
                seen.append(("interrupt", interrupt.cause, sim.now))
            yield sim.timeout(1.0)
            seen.append(("after", sim.now))

        me = sim.process(worker())
        sim.run(until=10.0)
        assert seen == [("interrupt", "self", 0.0), ("after", 1.0)]

    def test_later_interrupt_supersedes_an_undelivered_one(self):
        sim = Simulator()
        causes = []

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt as interrupt:
                causes.append(interrupt.cause)
            yield sim.timeout(1.0)

        process = sim.process(sleeper())
        after(sim, 1.0, lambda: (process.interrupt("first"), process.interrupt("second")))
        sim.run(until=5.0)
        assert causes == ["second"]
        assert not process.is_alive

    def test_interrupt_before_bootstrap_fails_without_running(self):
        sim = Simulator()
        ran = []

        def worker():
            ran.append(sim.now)
            yield sim.timeout(1.0)

        process = sim.process(worker())
        process.interrupt("too early")
        sim.run(until=5.0)
        assert ran == []
        assert isinstance(process.exception, Interrupt)

    def test_interrupt_cause_defaults_to_none(self):
        sim = Simulator()
        causes = []

        def sleeper():
            try:
                yield sim.timeout(10.0)
            except Interrupt as interrupt:
                causes.append(interrupt.cause)

        process = sim.process(sleeper())
        after(sim, 1.0, process.interrupt)
        sim.run(until=2.0)
        assert causes == [None]

    def test_abandoned_timeout_still_runs_its_callbacks(self):
        sim = Simulator()
        log = []

        def sleeper():
            nap = sim.timeout(5.0)
            nap.add_callback(lambda _e: log.append(("callback", sim.now)))
            try:
                yield nap
                log.append(("woke", sim.now))
            except Interrupt:
                log.append(("interrupted", sim.now))
            yield sim.timeout(10.0)
            log.append(("after", sim.now))

        process = sim.process(sleeper())
        after(sim, 1.0, process.interrupt)
        sim.run(until=20.0)
        assert log == [("interrupted", 1.0), ("callback", 5.0), ("after", 11.0)]

    def test_interrupting_a_parent_leaves_its_child_running(self):
        sim = Simulator()
        log = []

        def child():
            yield sim.timeout(4.0)
            log.append(("child done", sim.now))
            return "result"

        def parent():
            try:
                yield child_process
            except Interrupt:
                log.append(("parent interrupted", sim.now))
            value = yield child_process
            log.append(("parent got", value, sim.now))

        child_process = sim.process(child())
        parent_process = sim.process(parent())
        after(sim, 1.0, parent_process.interrupt)
        sim.run(until=10.0)
        assert log == [("parent interrupted", 1.0), ("child done", 4.0),
                       ("parent got", "result", 4.0)]


class TestTieBreakContract:
    """The documented equal-timestamp ordering contract.

    Heap entries are ``(time, sequence, event)`` with a monotonic sequence
    counter assigned at scheduling time: events scheduled at the same
    simulation time process strictly in schedule order.  This is an explicit
    contract (not an accident of list insertion order) and the golden
    trajectories depend on it.
    """

    def test_two_events_at_same_time_process_in_schedule_order(self):
        sim = Simulator()
        order = []
        first = sim.event()
        second = sim.event()
        # triggered (= scheduled) in this order, both at t=0
        first.succeed("first")
        second.succeed("second")
        first.add_callback(lambda e: order.append(e.value))
        second.add_callback(lambda e: order.append(e.value))
        sim.run(until=0.0)
        assert order == ["first", "second"]

    def test_mixed_event_kinds_share_one_sequence(self):
        """Timeouts, plain events and process wakeups obey one global order."""
        sim = Simulator()
        order = []

        def proc():
            order.append("process-bootstrap")
            yield sim.timeout(1.0)
            order.append("process-timeout")

        timeout_a = sim.timeout(1.0)          # scheduled 1st for t=1
        sim.process(proc())                   # bootstrap scheduled 2nd for t=0
        event = sim.event().succeed(None)     # scheduled 3rd for t=0
        timeout_b = sim.timeout(1.0)          # scheduled 4th for t=1
        timeout_a.add_callback(lambda _e: order.append("timeout-a"))
        event.add_callback(lambda _e: order.append("plain-event"))
        timeout_b.add_callback(lambda _e: order.append("timeout-b"))
        sim.run(until=2.0)
        # t=0: bootstrap precedes the plain event (scheduled earlier).
        # t=1: timeout-a first, then timeout-b, then the process's nap --
        # the nap was only scheduled when the bootstrap ran at t=0, which is
        # after both timeouts had already been created.
        assert order == ["process-bootstrap", "plain-event",
                         "timeout-a", "timeout-b", "process-timeout"]

    def test_sequence_counter_is_monotonic(self):
        sim = Simulator()
        before = sim._sequence
        sim.timeout(0.5)
        sim.timeout(0.5)
        sim.event().succeed()
        assert sim._sequence == before + 3

    def test_schedule_order_preserved_across_heap_reshuffles(self):
        """Many equal timestamps interleaved with earlier/later events."""
        sim = Simulator()
        fired = []
        # build a deliberately adversarial creation order for the heap
        for index, delay in enumerate([5.0, 1.0, 5.0, 3.0, 5.0, 1.0, 5.0]):
            after(sim, delay, lambda i=index, d=delay: fired.append((d, i)))
        sim.run(until=10.0)
        assert fired == [(1.0, 1), (1.0, 5), (3.0, 3),
                         (5.0, 0), (5.0, 2), (5.0, 4), (5.0, 6)]


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build_and_run():
            sim = Simulator()
            trace = []

            def worker(name, delay):
                while sim.now < 20.0:
                    yield sim.timeout(delay)
                    trace.append((name, round(sim.now, 9)))

            sim.process(worker("a", 0.7))
            sim.process(worker("b", 1.3))
            sim.run(until=25.0)
            return trace

        assert build_and_run() == build_and_run()
