"""Engine dispatch: batch records, timers, and step-vs-run parity.

Every event lives on one heap ordered by ``(time, priority, seq)``, and
``run()`` and ``step()`` share one dispatch loop.  This suite pins:

* batched ``OP_DELIVER_BATCH`` records — they fire in their reserved
  sequence positions, ``pending()`` counts them per record, and
  ``stop()`` or ``step()`` between two records re-queues the tail;
* periodic-timer ordering, cancel accounting and ``run(until)``
  semantics;
* a Hypothesis differential property: one engine drained with
  repeated ``step()`` and one drained with ``run()``, fed the same
  random schedule of periodic tasks (jittered and not, interval
  changes, stop-after-k), batch deliveries and cancelled one-shots,
  must produce identical firing logs, clocks, counters and pending
  counts.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine, SimulationError
from repro.sim.process import PeriodicTask


class _Sink:
    """Delivery target that logs ``deliver`` calls with the clock."""

    def __init__(self, engine: Engine, log: list, name: str) -> None:
        self._engine = engine
        self._log = log
        self.name = name

    def deliver(self, packet) -> None:
        self._log.append(("deliver", self.name, packet, self._engine.now))


class _StoppingSink(_Sink):
    """Stops the engine from inside its delivery."""

    def deliver(self, packet) -> None:
        super().deliver(packet)
        self._engine.stop()


class TestBatchRecords:
    def test_batch_fires_in_reserved_sequence_positions(self):
        """A batch behaves exactly like n individual pushes.

        An event scheduled *after* the batch at the same (time,
        priority) must fire after the whole block — its sequence number
        is higher than every reserved one.
        """
        eng = Engine()
        log: list = []
        sinks = [_Sink(eng, log, f"s{i}") for i in range(3)]
        eng.schedule_deliver_batch(1.0, sinks, ["a", "b", "c"])
        eng.schedule_at(1.0, lambda: log.append(("after", eng.now)))
        eng.schedule_at(
            1.0, lambda: log.append(("prio", eng.now)), priority=-1
        )
        eng.run()
        assert log == [
            ("prio", 1.0),
            ("deliver", "s0", "a", 1.0),
            ("deliver", "s1", "b", 1.0),
            ("deliver", "s2", "c", 1.0),
            ("after", 1.0),
        ]
        assert eng.events_processed == 5

    def test_batch_matches_individual_records(self):
        """Differential: batch vs n schedule_deliver calls."""

        def drive(batched: bool):
            eng = Engine()
            log: list = []
            sinks = [_Sink(eng, log, f"s{i}") for i in range(4)]
            if batched:
                eng.schedule_deliver_batch(
                    0.5, sinks, list("wxyz"), category="data"
                )
            else:
                for s, p in zip(sinks, "wxyz"):
                    eng.schedule_deliver(0.5, s, p, category="data")
            eng.schedule_at(0.25, lambda: log.append(("early", eng.now)))
            eng.run()
            return log, eng.events_processed, dict(eng.event_counts)

        assert drive(True) == drive(False)

    def test_pending_counts_batch_records_individually(self):
        eng = Engine()
        log: list = []
        sinks = [_Sink(eng, log, f"s{i}") for i in range(5)]
        eng.schedule_deliver_batch(1.0, sinks, list(range(5)))
        assert eng.pending() == 5
        eng.schedule_deliver_batch(2.0, sinks[:1], ["solo"])
        assert eng.pending() == 6  # n == 1 collapses to a plain record
        eng.run()
        assert eng.pending() == 0
        assert eng.events_processed == 6

    def test_stop_mid_batch_requeues_tail_under_reserved_seqs(self):
        eng = Engine()
        log: list = []
        sinks = [
            _Sink(eng, log, "s0"),
            _StoppingSink(eng, log, "s1"),
            _Sink(eng, log, "s2"),
            _Sink(eng, log, "s3"),
        ]
        eng.schedule_deliver_batch(1.0, sinks, list("abcd"))
        # Scheduled after the batch: must still fire after the whole
        # block even though the block is interrupted and resumed.
        eng.schedule_at(1.0, lambda: log.append(("after", eng.now)))
        eng.run()
        assert [e[1] for e in log if e[0] == "deliver"] == ["s0", "s1"]
        assert eng.events_processed == 2
        # the two unfired records (plus the callback) survive the stop
        assert eng.pending() == 3
        assert eng.now == 1.0
        eng.run()
        assert [e[1] for e in log if e[0] == "deliver"] == [
            "s0", "s1", "s2", "s3"
        ]
        assert log[-1] == ("after", 1.0)
        assert eng.pending() == 0
        assert eng.events_processed == 5

    def test_cancel_during_batch_takes_effect(self):
        """A batch delivery cancelling a later heap event really stops it."""
        eng = Engine()
        log: list = []
        handle_box: dict = {}

        class _Canceller(_Sink):
            def deliver(self, packet) -> None:
                super().deliver(packet)
                handle_box["h"].cancel()

        sinks = [_Canceller(eng, log, "s0"), _Sink(eng, log, "s1")]
        eng.schedule_deliver_batch(1.0, sinks, ["a", "b"])
        handle_box["h"] = eng.schedule_at(
            1.5, lambda: log.append(("doomed", eng.now))
        )
        eng.run()
        assert ("doomed", 1.5) not in log
        assert [e[1] for e in log if e[0] == "deliver"] == ["s0", "s1"]
        assert eng.pending() == 0

    def test_step_granularity_is_one_record(self):
        eng = Engine()
        log: list = []
        sinks = [_Sink(eng, log, f"s{i}") for i in range(3)]
        eng.schedule_deliver_batch(1.0, sinks, list("abc"))
        assert eng.step() is True
        assert len(log) == 1 and eng.pending() == 2
        assert eng.step() is True
        assert eng.step() is True
        assert eng.step() is False
        assert [e[1] for e in log] == ["s0", "s1", "s2"]
        assert eng.events_processed == 3

    def test_run_until_excludes_future_batch(self):
        eng = Engine()
        log: list = []
        sinks = [_Sink(eng, log, "s")]
        eng.schedule_deliver_batch(2.0, sinks * 2, ["a", "b"])
        eng.run(until=1.0)
        assert log == []
        assert eng.now == 1.0
        assert eng.pending() == 2

    def test_batch_validation(self):
        eng = Engine()
        sink = _Sink(eng, [], "s")
        with pytest.raises(SimulationError):
            eng.schedule_deliver_batch(1.0, [sink], ["a", "b"])
        with pytest.raises(SimulationError):
            eng.schedule_deliver_batch(float("nan"), [sink], ["a"])
        eng.schedule_at(1.0, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.schedule_deliver_batch(0.5, [sink], ["a"])
        # empty batches are a no-op, not an error
        eng.schedule_deliver_batch(2.0, [], [])
        assert eng.pending() == 0


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

#: (time as a fraction of the horizon, number of receivers)
BATCH = st.tuples(
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


def _build(tasks_spec, shots, batches, until):
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
            if fanout:
                eng.schedule_deliver_batch(
                    eng.now,
                    sinks[:fanout],
                    [(k, task.ticks, r) for r in range(fanout)],
                )
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
    for i, (at, n) in enumerate(batches):
        eng.schedule_deliver_batch(
            at * until, sinks[:n], [("b", i, r) for r in range(n)]
        )

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
        batches=st.lists(BATCH, max_size=4),
        until=HORIZON,
    )
    def test_step_and_run_fire_identically(self, specs, shots, batches, until):
        schedule = (specs, shots, batches, until)
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
        batches=st.lists(BATCH, max_size=3),
        until=HORIZON,
        split=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_step_matches_run_resume(self, specs, shots, batches, until, split):
        """``run(until=...)`` then ``run()`` matches stepping throughout."""
        schedule = (specs, shots, batches, until)
        assert _drain_by_step(schedule) == _drain_by_run(schedule, split)
