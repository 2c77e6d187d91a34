"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.kernel import Environment, Resource, SimulationError, Store


class TestEnvironment:
    def test_time_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_schedule_and_run_advance_time(self):
        env = Environment()
        seen = []
        env.schedule(lambda _v: seen.append(env.now), delay=1.5)
        env.schedule(lambda _v: seen.append(env.now), delay=0.5)
        env.run()
        assert seen == [0.5, 1.5]
        assert env.now == 1.5

    def test_cannot_schedule_into_the_past(self):
        with pytest.raises(SimulationError):
            Environment().schedule(lambda _v: None, delay=-1.0)

    def test_run_until_stops_before_later_events(self):
        env = Environment()
        seen = []
        env.schedule(lambda _v: seen.append("early"), delay=1.0)
        env.schedule(lambda _v: seen.append("late"), delay=5.0)
        env.run(until=2.0)
        assert seen == ["early"]
        assert env.now == 2.0
        env.run()
        assert seen == ["early", "late"]

    def test_run_until_advances_idle_clock(self):
        env = Environment()
        env.run(until=3.0)
        assert env.now == 3.0

    def test_peek_and_pending(self):
        env = Environment()
        assert env.peek() is None
        env.schedule(lambda _v: None, delay=2.0)
        assert env.peek() == 2.0
        assert env.pending == 1

    def test_ties_run_in_schedule_order(self):
        env = Environment()
        seen = []
        env.schedule(lambda _v: seen.append("first"), delay=1.0)
        env.schedule(lambda _v: seen.append("second"), delay=1.0)
        env.run()
        assert seen == ["first", "second"]


class TestEventsAndProcesses:
    def test_event_succeed_delivers_value(self):
        env = Environment()
        event = env.event()
        results = []
        event.add_callback(lambda e: results.append(e.value))
        event.succeed("payload")
        env.run()
        assert results == ["payload"]

    def test_event_cannot_fire_twice(self):
        env = Environment()
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_callback_added_after_dispatch_still_runs(self):
        env = Environment()
        event = env.event()
        event.succeed(7)
        env.run()
        late = []
        event.add_callback(lambda e: late.append(e.value))
        env.run()
        assert late == [7]

    def test_timeout_value_and_delay(self):
        env = Environment()
        seen = []

        def proc():
            value = yield env.timeout(2.0, value="done")
            seen.append((env.now, value))

        env.process(proc())
        env.run()
        assert seen == [(2.0, "done")]

    def test_process_completion_event(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)
            return 42

        process = env.process(proc())
        env.run()
        assert process.finished
        assert process.completion.value == 42

    def test_process_must_yield_events(self):
        env = Environment()

        def bad():
            yield "not an event"

        env.process(bad())
        with pytest.raises(SimulationError):
            env.run()

    def test_nested_generators_with_yield_from(self):
        env = Environment()
        seen = []

        def inner():
            yield env.timeout(1.0)
            return "inner-done"

        def outer():
            result = yield from inner()
            seen.append((env.now, result))

        env.process(outer())
        env.run()
        assert seen == [(1.0, "inner-done")]


class TestResource:
    def test_capacity_must_be_positive(self):
        with pytest.raises(SimulationError):
            Resource(Environment(), 0)

    def test_grants_up_to_capacity_then_queues(self):
        env = Environment()
        resource = Resource(env, 2)
        order = []

        def worker(name, hold):
            grant = yield resource.request()
            order.append((name, env.now))
            yield env.timeout(hold)
            resource.release(grant)

        for index in range(4):
            env.process(worker(f"w{index}", 1.0))
        env.run()
        start_times = dict(order)
        assert start_times["w0"] == 0.0 and start_times["w1"] == 0.0
        assert start_times["w2"] == 1.0 and start_times["w3"] == 1.0

    def test_fifo_queueing(self):
        env = Environment()
        resource = Resource(env, 1)
        order = []

        def worker(name):
            grant = yield resource.request()
            order.append(name)
            yield env.timeout(0.1)
            resource.release(grant)

        for name in ("a", "b", "c"):
            env.process(worker(name))
        env.run()
        assert order == ["a", "b", "c"]

    def test_double_release_rejected(self):
        env = Environment()
        resource = Resource(env, 1)
        grants = []

        def worker():
            grant = yield resource.request()
            grants.append(grant)

        env.process(worker())
        env.run()
        resource.release(grants[0])
        with pytest.raises(SimulationError):
            resource.release(grants[0])

    def test_queue_length_and_in_use(self):
        env = Environment()
        resource = Resource(env, 1)

        def holder():
            grant = yield resource.request()
            yield env.timeout(10.0)
            resource.release(grant)

        def waiter():
            grant = yield resource.request()
            resource.release(grant)

        env.process(holder())
        env.process(waiter())
        env.run(until=1.0)
        assert resource.in_use == 1
        assert resource.queue_length == 1

    def test_utilisation_accounting(self):
        env = Environment()
        resource = Resource(env, 1)

        def worker():
            grant = yield resource.request()
            yield env.timeout(5.0)
            resource.release(grant)

        env.process(worker())
        env.run(until=10.0)
        assert resource.utilisation(10.0) == pytest.approx(0.5, abs=0.01)


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)
        store.put("x")
        values = []

        def getter():
            value = yield store.get()
            values.append(value)

        env.process(getter())
        env.run()
        assert values == ["x"]

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        values = []

        def getter():
            value = yield store.get()
            values.append((env.now, value))

        def putter():
            yield env.timeout(2.0)
            store.put("late")

        env.process(getter())
        env.process(putter())
        env.run()
        assert values == [(2.0, "late")]

    def test_fifo_ordering_of_items_and_getters(self):
        env = Environment()
        store = Store(env)
        values = []

        def getter(tag):
            value = yield store.get()
            values.append((tag, value))

        env.process(getter("g1"))
        env.process(getter("g2"))
        store.put("a")
        store.put("b")
        env.run()
        assert values == [("g1", "a"), ("g2", "b")]

    def test_len_reports_buffered_items(self):
        env = Environment()
        store = Store(env)
        store.put(1)
        store.put(2)
        assert len(store) == 2
