"""Engine dispatch: timers and step-vs-run parity.

Every event lives on one heap ordered by ``(time, priority, seq)``, and
``run()`` and ``step()`` share one dispatch loop.  This suite pins:

* periodic-timer ordering, cancel accounting and ``run(until)``
  semantics;
* a Hypothesis differential property: one engine drained with
  repeated ``step()`` and one drained with ``run()``, fed the same
  random schedule of periodic tasks (jittered and not, interval
  changes, stop-after-k), same-instant delivery fan-outs and cancelled
  one-shots, must produce identical firing logs, clocks, counters and
  pending counts.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.sim.process import PeriodicTask


class TestTimers:
    def test_timer_orders_against_heap_events(self):
        eng = Engine()
        log: list = []
        PeriodicTask(eng, 1.0, lambda: log.append(("tick", eng.now)))
        eng.schedule_in(1.0, lambda: log.append(("heap", eng.now)))
        eng.schedule_in(0.5, lambda: log.append(("early", eng.now)))
        eng.run(until=1.0)
        # same time: the tick was scheduled first, so it fires first
        assert log == [("early", 0.5), ("tick", 1.0), ("heap", 1.0)]

    def test_cancelled_timer_accounting(self):
        eng = Engine()
        log: list = []
        h1 = eng.schedule_in(1.0, lambda: log.append("a"), category="timer")
        eng.schedule_in(2.0, lambda: log.append("b"), category="timer")
        assert eng.pending() == 2
        h1.cancel()
        h1.cancel()  # idempotent
        assert eng.pending() == 1
        eng.run()
        assert log == ["b"]
        assert eng.pending() == 0
        assert eng.events_processed == 1

    def test_run_until_leaves_next_tick_queued(self):
        eng = Engine()
        log: list = []
        PeriodicTask(eng, 1.0, lambda: log.append(eng.now))
        eng.run(until=3.5)
        assert log == [1.0, 2.0, 3.0]
        assert eng.now == 3.5
        assert eng.pending() == 1  # next tick at 4.0 still queued
        eng.run(until=4.0)
        assert log == [1.0, 2.0, 3.0, 4.0]


# --------------------------------------------------------------------------
# Hypothesis: step() and run() fire identically
# --------------------------------------------------------------------------

TASK = st.tuples(
    st.floats(min_value=0.05, max_value=3.0),   # interval
    st.floats(min_value=0.0, max_value=2.0),    # start offset
    st.booleans(),                              # jittered?
    st.integers(min_value=-1, max_value=20),    # stop after k ticks (-1: never)
    st.one_of(                                  # set_interval at tick 2
        st.none(), st.floats(min_value=0.05, max_value=3.0)
    ),
    st.integers(min_value=0, max_value=3),      # same-time fan-out per tick
)

#: (time, cancel time or None), both as fractions of the horizon
ONE_SHOT = st.tuples(
    st.floats(min_value=0.0, max_value=1.0),
    st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
)

#: A same-instant fan-out: (time as a fraction of the horizon, number
#: of receivers), scheduled as consecutive delivery records.
FANOUT = st.tuples(
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=4),
)

HORIZON = st.floats(min_value=0.5, max_value=12.0)


class _Probe:
    """Delivery target that logs through the schedule's ``note``."""

    def __init__(self, note, name: str) -> None:
        self._note = note
        self.name = name

    def deliver(self, packet) -> None:
        self._note("deliver", self.name, packet)


def _build(tasks_spec, shots, fanouts, until):
    """An engine loaded with one generated schedule, and its firing log.

    Every firing logs the clock, ``events_processed`` and ``pending()``
    as seen from inside the callback.  An event at ``until`` stops every
    periodic task, so the queue drains by itself.
    """
    eng = Engine(seed=42)
    log: list = []

    def note(*what) -> None:
        log.append((*what, eng.now, eng.events_processed, eng.pending()))

    sinks = [_Probe(note, f"s{r}") for r in range(4)]
    tasks: list[PeriodicTask] = []

    def make_cb(k: int, stop_after: int, new_interval, fanout: int):
        def cb() -> None:
            task = tasks[k]
            note("tick", k)
            for r in range(fanout):
                eng.schedule_deliver(eng.now, sinks[r], (k, task.ticks, r))
            if new_interval is not None and task.ticks == 2:
                task.set_interval(new_interval)
            if task.ticks == stop_after:
                task.stop()

        return cb

    for k, (interval, offset, jittered, stop_after, new_interval, fanout) in (
        enumerate(tasks_spec)
    ):
        tasks.append(
            PeriodicTask(
                eng,
                interval,
                make_cb(k, stop_after, new_interval, fanout),
                jitter=0.2 * interval if jittered else 0.0,
                rng=eng.rng.stream(f"jit{k}") if jittered else None,
                start_offset=offset,
                category="hello" if k % 2 else "timer",
            )
        )
    for i, (at, cancel_at) in enumerate(shots):
        handle = eng.schedule_at(
            at * until, lambda i=i: note("shot", i), category="control"
        )
        if cancel_at is not None:
            eng.schedule_at(cancel_at * until, handle.cancel)
    for i, (at, n) in enumerate(fanouts):
        for r in range(n):
            eng.schedule_deliver(at * until, sinks[r], ("b", i, r))

    def stop_all() -> None:
        note("horizon")
        for task in tasks:
            task.stop()

    eng.schedule_at(until, stop_all)
    return eng, log


def _outcome(eng: Engine, log: list):
    return (
        log, eng.now, eng.events_processed, dict(eng.event_counts),
        eng.pending(),
    )


def _drain_by_step(schedule):
    eng, log = _build(*schedule)
    while eng.step():
        pass
    now = eng.now
    # An empty queue leaves the clock unchanged.
    assert eng.step() is False
    assert eng.now == now
    return _outcome(eng, log)


def _drain_by_run(schedule, split: float | None = None):
    eng, log = _build(*schedule)
    if split is not None:
        eng.run(until=split * schedule[3])
    eng.run()
    return _outcome(eng, log)


class TestStepRunParity:
    @settings(max_examples=60, deadline=None)
    @given(
        specs=st.lists(TASK, min_size=1, max_size=5),
        shots=st.lists(ONE_SHOT, max_size=4),
        fanouts=st.lists(FANOUT, max_size=4),
        until=HORIZON,
    )
    def test_step_and_run_fire_identically(self, specs, shots, fanouts, until):
        schedule = (specs, shots, fanouts, until)
        assert _drain_by_step(schedule) == _drain_by_run(schedule)

    @settings(max_examples=60, deadline=None)
    @given(
        period=st.floats(min_value=0.01, max_value=2.5),
        n_tasks=st.integers(min_value=1, max_value=5),
        offsets=st.lists(
            st.floats(min_value=0.0, max_value=1.5), min_size=5, max_size=5
        ),
        until=st.floats(min_value=0.5, max_value=10.0),
    )
    def test_shared_period_ties_parity(self, period, n_tasks, offsets, until):
        """Tasks sharing one period tie at equal times every round;
        the tie-break must not depend on how the loop is driven."""
        specs = [
            (period, offsets[k], False, -1, None, k % 3) for k in range(n_tasks)
        ]
        schedule = (specs, [], [], until)
        assert _drain_by_step(schedule) == _drain_by_run(schedule)

    @settings(max_examples=40, deadline=None)
    @given(
        specs=st.lists(TASK, min_size=1, max_size=4),
        shots=st.lists(ONE_SHOT, max_size=3),
        fanouts=st.lists(FANOUT, max_size=3),
        until=HORIZON,
        split=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_step_matches_run_resume(self, specs, shots, fanouts, until, split):
        """``run(until=...)`` then ``run()`` matches stepping throughout."""
        schedule = (specs, shots, fanouts, until)
        assert _drain_by_step(schedule) == _drain_by_run(schedule, split)
