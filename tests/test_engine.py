"""Event loop and random-stream tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.engine import Simulator
from repro.simnet.randomness import RandomStreams


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(0.3, fired.append, "c")
    sim.schedule(0.1, fired.append, "a")
    sim.schedule(0.2, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for name in "abcde":
        sim.schedule(1.0, fired.append, name)
    sim.run()
    assert fired == list("abcde")


def test_clock_advances_to_event_times():
    sim = Simulator()
    seen = []
    sim.schedule(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]
    assert sim.now == 2.5


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(3.0, fired.append, "late")
    sim.run(until=2.0)
    assert fired == ["early"]
    assert sim.now == 2.0
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_advances_clock_even_with_empty_queue():
    sim = Simulator()
    sim.run(until=7.0)
    assert sim.now == 7.0


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    handle.cancel()
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_cannot_schedule_in_the_past():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(0.5, lambda: None)
    with pytest.raises(ValueError):
        sim.schedule(-0.1, lambda: None)


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def outer():
        fired.append("outer")
        sim.schedule(0.5, fired.append, "inner")

    sim.schedule(1.0, outer)
    sim.run()
    assert fired == ["outer", "inner"]
    assert sim.now == 1.5


def test_max_events_limits_execution():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(0.1 * (i + 1), fired.append, i)
    sim.run(max_events=4)
    assert fired == [0, 1, 2, 3]


def test_simulator_not_reentrant():
    sim = Simulator()

    def reenter():
        with pytest.raises(RuntimeError):
            sim.run()

    sim.schedule(0.1, reenter)
    sim.run()


def test_pending_events_counts_uncancelled():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    handle = sim.schedule(2.0, lambda: None)
    handle.cancel()
    assert sim.pending_events() == 1


def test_pending_events_tracks_schedule_cancel_and_run():
    sim = Simulator()
    handles = [sim.schedule(0.1 * (i + 1), lambda: None) for i in range(4)]
    assert sim.pending_events() == 4
    handles[0].cancel()
    handles[0].cancel()  # double-cancel must not decrement twice
    assert sim.pending_events() == 3
    sim.run(max_events=2)
    assert sim.pending_events() == 1
    sim.run()
    assert sim.pending_events() == 0


def test_pending_events_counts_events_scheduled_during_run():
    sim = Simulator()
    sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: None))
    sim.run(until=1.0)
    assert sim.pending_events() == 1


def test_processed_events_counter():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(0.1, lambda: None)
    sim.run()
    assert sim.processed_events == 5


def test_named_streams_are_deterministic():
    a = RandomStreams(42)
    b = RandomStreams(42)
    assert [a.get("x").random() for _ in range(5)] == \
           [b.get("x").random() for _ in range(5)]


def test_named_streams_are_independent():
    streams = RandomStreams(42)
    first = [streams.get("x").random() for _ in range(5)]
    # Drawing from another stream must not perturb the first.
    streams2 = RandomStreams(42)
    streams2.get("y").random()
    second = [streams2.get("x").random() for _ in range(5)]
    assert first == second


def test_different_seeds_differ():
    a = RandomStreams(1).get("x").random()
    b = RandomStreams(2).get("x").random()
    assert a != b


def test_fork_gives_independent_registry():
    base = RandomStreams(7)
    fork1 = base.fork("rep1")
    fork2 = base.fork("rep2")
    assert fork1.get("x").random() != fork2.get("x").random()


def test_simulator_rng_is_stream_backed():
    sim_a = Simulator(seed=5)
    sim_b = Simulator(seed=5)
    assert sim_a.rng("link").random() == sim_b.rng("link").random()


# -- differential test against a sorted-list reference model ----------------

class _ReferenceEngine:
    """The simulator's contract as a sorted list of pending entries."""

    def __init__(self):
        self.now = 0.0
        self.processed_events = 0
        self._pending = []  # [when, seq, callback, args], sorted
        self._seq = 0

    def schedule_at(self, when, callback, *args):
        if when < self.now:
            raise ValueError(when)
        entry = [when, self._seq, callback, args]
        self._seq += 1
        self._pending.append(entry)
        self._pending.sort(key=lambda e: (e[0], e[1]))
        return entry

    def schedule(self, delay, callback, *args):
        return self.schedule_at(self.now + delay, callback, *args)

    def cancel(self, entry):
        if entry in self._pending:  # seq is unique, so == is identity
            self._pending.remove(entry)

    def pending_events(self):
        return len(self._pending)

    def run(self, until=None, max_events=None):
        executed = 0
        while self._pending:
            when, _, callback, args = self._pending[0]
            if until is not None and when > until:
                break
            if max_events is not None and executed >= max_events:
                break
            self._pending.pop(0)
            self.now = when
            callback(*args)
            self.processed_events += 1
            executed += 1
        if until is not None and self.now < until and (
                not self._pending or self._pending[0][0] >= until):
            self.now = until
        return self.now


class _Driver:
    """Runs one program against one engine, logging every firing."""

    def __init__(self, engine, cancel):
        self.engine = engine
        self._cancel = cancel
        self.handles = []
        self.log = []

    def schedule(self, delay, label, nested=None, relative=False):
        if relative:
            handle = self.engine.schedule(delay, self._fire, label, nested)
        else:
            handle = self.engine.schedule_at(self.engine.now + delay,
                                             self._fire, label, nested)
        self.handles.append(handle)

    def cancel(self, index):
        if self.handles:
            handle = self.handles[index % len(self.handles)]
            self._cancel(handle)
            pending = self.engine.pending_events()
            self._cancel(handle)
            assert self.engine.pending_events() == pending

    def _fire(self, label, nested):
        self.log.append((label, self.engine.now))
        if nested is not None:
            kind, value = nested
            if kind == "cancel":
                self.cancel(value)
            else:
                self.schedule(value, f"{label}+", relative=True)


_DELAYS = st.sampled_from([0.0, 0.0, 0.25, 1.0, 1.0, 2.5])
_NESTED = st.one_of(
    st.none(),
    st.tuples(st.just("cancel"), st.integers(0, 30)),
    st.tuples(st.just("schedule"), _DELAYS))
_OPS = st.one_of(
    st.tuples(st.just("schedule"), _DELAYS, _NESTED, st.booleans()),
    st.tuples(st.just("cancel"), st.integers(0, 30)),
    st.tuples(st.just("run"),
              st.one_of(st.none(), st.sampled_from([0.0, 0.25, 1.0, 3.0])),
              st.one_of(st.none(), st.integers(0, 4))))


@settings(max_examples=300, deadline=None)
@given(st.lists(_OPS, max_size=40))
def test_engine_matches_reference_model(program):
    sim = Simulator()
    model = _ReferenceEngine()
    drivers = (_Driver(sim, lambda handle: handle.cancel()),
               _Driver(model, model.cancel))
    for step, op in enumerate(program):
        for driver in drivers:
            if op[0] == "schedule":
                driver.schedule(op[1], step, op[2], op[3])
            elif op[0] == "cancel":
                driver.cancel(op[1])
            else:
                until = None if op[1] is None else driver.engine.now + op[1]
                driver.engine.run(until=until, max_events=op[2])
        real, ref = drivers
        assert real.log == ref.log
        assert sim.now == model.now
        assert sim.processed_events == model.processed_events
        assert sim.pending_events() == model.pending_events()
        assert [(h.when, h.seq) for h in real.handles] == \
            [(h[0], h[1]) for h in ref.handles]
    sim.run()
    model.run()
    assert drivers[0].log == drivers[1].log
    assert sim.pending_events() == model.pending_events() == 0
