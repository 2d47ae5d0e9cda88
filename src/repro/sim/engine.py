"""The discrete-event engine.

``Engine`` owns the simulation clock, the event heap, and the registry
of named random streams.  It is intentionally callback-based (like the
NS-2 scheduler the paper's evaluation ran on) rather than
coroutine-based: protocol state machines in this repository react to
packet-arrival events, so callbacks map directly onto the domain.

Performance notes
-----------------
The heap stores plain ``(time, priority, seq, fn, category, event)``
tuples rather than :class:`~repro.sim.events.Event` objects, so every
sift comparison is a C-level tuple comparison (``seq`` is unique, so
the trailing non-comparable fields are never reached).  ``run`` and
``step`` share one inlined pop loop (:meth:`Engine._dispatch`).
Callers that never cancel an event — packet deliveries, which
dominate the schedule — pass ``cancellable=False`` and skip the
:class:`Event`/:class:`EventHandle` allocations entirely.
Frame deliveries go one step further: :meth:`schedule_deliver` pushes a
*typed record* ``(time, priority, seq, OP_DELIVER, category, node,
packet)`` with no callable at all, and the pop loop dispatches it with
a direct ``node.deliver(packet)`` call — no closure or ``partial``
allocation per frame on the dominant (``data``) schedule path.  A
broadcast's fan-out is one record per receiver, pushed in receiver
order, so the block fires back-to-back at consecutive ``seq`` values.
Cancelled events are counted live, making :meth:`pending` O(1), and
the heap is compacted once more than half of it is dead so
cancellation-heavy workloads (retransmit timers) cannot grow it
unboundedly.
"""

from __future__ import annotations

import heapq
from math import isfinite
from typing import Any, Callable

from repro.sim.events import Event, EventHandle, OP_DELIVER
from repro.sim.rng import RngRegistry

#: Compaction threshold: dead entries tolerated before a rebuild is
#: even considered (amortises tiny heaps away).
_COMPACT_MIN = 64


class SimulationError(RuntimeError):
    """Raised on scheduling errors (e.g., scheduling into the past)."""


class Engine:
    """Deterministic discrete-event simulation engine.

    Parameters
    ----------
    seed:
        Master seed for the engine's :class:`~repro.sim.rng.RngRegistry`.
        Two engines constructed with the same seed and fed the same
        schedule produce identical trajectories.

    Notes
    -----
    * Time is a float number of seconds starting at ``0.0``.
    * Events at equal times fire in ``(priority, insertion)`` order.
    * ``run(until=...)`` stops *after* processing every event with
      ``time <= until`` and leaves ``now`` at ``until``.
    """

    def __init__(self, seed: int = 0) -> None:
        self._now: float = 0.0
        # Heap of (time, priority, seq, fn, category, Event | None).
        self._heap: list[tuple] = []
        self._seq: int = 0
        self._stopped: bool = False
        self._n_cancelled: int = 0
        self.rng = RngRegistry(seed)
        #: number of events processed so far (diagnostic)
        self.events_processed: int = 0
        #: processed events by category ("hello" / "data" / "control" /
        #: "timer" / "other") — cheap per-run profile of where the
        #: event budget goes, surfaced through ``RunResult.event_counts``.
        self.event_counts: dict[str, int] = {}

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule_at(
        self,
        time: float,
        fn: Callable[[], Any],
        priority: int = 0,
        category: str = "other",
        cancellable: bool = True,
    ) -> EventHandle | None:
        """Schedule ``fn`` to run at absolute time ``time``.

        ``category`` tags the event for :attr:`event_counts`.  With
        ``cancellable=False`` no handle is created (and ``None`` is
        returned) — the fast lane for fire-and-forget events like frame
        deliveries, which saves two allocations per event on the
        dominant schedule path.

        Raises
        ------
        SimulationError
            If ``time`` is in the past or not finite.
        """
        if not isfinite(time):
            raise SimulationError(f"non-finite event time {time!r}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f} < now={self._now:.6f}"
            )
        seq = self._seq
        self._seq = seq + 1
        if not cancellable:
            heapq.heappush(self._heap, (time, priority, seq, fn, category, None))
            return None
        ev = Event(time=time, priority=priority, seq=seq, fn=fn)
        heapq.heappush(self._heap, (time, priority, seq, fn, category, ev))
        return EventHandle(ev, self)

    def schedule_in(
        self,
        delay: float,
        fn: Callable[[], Any],
        priority: int = 0,
        category: str = "other",
        cancellable: bool = True,
    ) -> EventHandle | None:
        """Schedule ``fn`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.schedule_at(
            self._now + delay,
            fn,
            priority=priority,
            category=category,
            cancellable=cancellable,
        )

    def schedule_deliver(
        self,
        time: float,
        node: Any,
        packet: Any,
        priority: int = 0,
        category: str = "data",
    ) -> None:
        """Schedule ``node.deliver(packet)`` as a typed delivery record.

        The fast lane for the dominant schedule entry: no callback, no
        closure — the pop loop invokes ``deliver`` directly from the
        heap tuple.  Records are never cancellable and fire in exactly
        the ``(time, priority, insertion)`` order a ``cancellable=False``
        callback scheduled at the same point would (the shared ``seq``
        counter makes the two lanes interleave deterministically).

        Raises
        ------
        SimulationError
            If ``time`` is in the past or not finite.
        """
        if not isfinite(time):
            raise SimulationError(f"non-finite event time {time!r}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f} < now={self._now:.6f}"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(
            self._heap,
            (time, priority, seq, OP_DELIVER, category, node, packet),
        )

    # ------------------------------------------------------------------
    # cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """An ``EventHandle`` cancelled a queued event (O(1) amortised).

        Keeps :meth:`pending` O(1) and compacts the heap when more than
        half of it is dead, so workloads that cancel most of what they
        schedule (retransmit timers under good link conditions) hold
        the heap at O(live events) instead of growing it unboundedly.
        """
        self._n_cancelled += 1
        if (
            self._n_cancelled > _COMPACT_MIN
            and 2 * self._n_cancelled > len(self._heap)
        ):
            # In place: the dispatch loop holds a local alias to the
            # heap list.  Typed delivery records (integer opcode in the
            # fn slot) carry a Node in slot 5 and are never cancellable.
            heap = self._heap
            heap[:] = [
                entry
                for entry in heap
                if type(entry[3]) is int
                or entry[5] is None
                or not entry[5].cancelled
            ]
            heapq.heapify(heap)
            self._n_cancelled = 0

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Process the next pending event.

        Returns
        -------
        bool
            ``True`` if an event was processed, ``False`` if the queue
            was empty (clock unchanged).
        """
        # A stop() left over from an earlier run() must not block it.
        self._stopped = False
        return self._dispatch(None, True)

    def run(self, until: float | None = None) -> None:
        """Run until the queue drains or the clock passes ``until``.

        When ``until`` is given, every event with ``time <= until`` is
        processed and the clock is then advanced to exactly ``until``.
        """
        self._stopped = False
        self._dispatch(until, False)
        if until is not None and not self._stopped and until > self._now:
            self._now = until

    def _dispatch(self, until: float | None, single: bool) -> bool:
        """The event loop behind :meth:`run` and :meth:`step`.

        Pops entries in ``(time, priority, seq)`` order and fires them
        until the queue is empty, the head lies beyond ``until``,
        :meth:`stop` is called, or — with ``single`` — one event has
        fired.  Returns ``True`` only in that last case.
        """
        heap = self._heap
        pop = heapq.heappop
        counts = self.event_counts
        while not self._stopped:
            if not heap:
                return False
            entry = heap[0]
            time_ = entry[0]
            if until is not None and time_ > until:
                return False
            pop(heap)
            fn = entry[3]
            category = entry[4]
            if type(fn) is int:
                # Typed delivery record (the dominant entry kind): one
                # direct method call, no callback indirection.  Its own
                # ``continue``: on CPython 3.11, falling through to the
                # shared tail measured ~25% slower.
                self._now = time_
                self.events_processed += 1
                counts[category] = counts.get(category, 0) + 1
                entry[5].deliver(entry[6])
                if single:
                    return True
                continue
            ev = entry[5]
            if ev is not None:
                if ev.cancelled:
                    self._n_cancelled -= 1
                    continue
                ev.fired = True
            self._now = time_
            self.events_processed += 1
            counts[category] = counts.get(category, 0) + 1
            fn()
            if single:
                return True
        return False

    def stop(self) -> None:
        """Stop a ``run`` in progress after the current event returns."""
        self._stopped = True

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return len(self._heap) - self._n_cancelled

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Engine t={self._now:.6f} pending={self.pending()} "
            f"processed={self.events_processed}>"
        )
