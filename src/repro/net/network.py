"""The Network container: nodes + radio + MAC + event engine.

``Network`` is the simulation's link layer.  It owns the node array,
maintains time-indexed position snapshots (with a uniform-grid spatial
index), tracks concurrent in-flight transmissions for MAC contention,
and exposes exactly two communication primitives to protocols:

* :meth:`unicast` — an acknowledged one-hop frame exchange, and
* :meth:`local_broadcast` — an unacknowledged one-hop broadcast,

plus hello-beacon neighbor discovery.  Everything above (GPSR, ALERT,
ALARM, AO2P) is built from these.
"""

from __future__ import annotations

import heapq
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

from repro.crypto.keys import generate_keypairs
from repro.geometry.field import Field
from repro.geometry.primitives import Point, Rect
from repro.geometry.spatial_index import GridIndex
from repro.mobility.base import MobilityModel, SnapshotInterpolator
from repro.net.mac import Mac80211Dcf, MacOutcome
from repro.net.neighbor_table import NeighborEntry
from repro.net.node import Node
from repro.net.packet import Packet, PacketKind
from repro.net.radio import RadioModel
from repro.sim.engine import Engine
from repro.sim.process import PeriodicTask

#: Called after every link-layer exchange: (flow_id, attempts, success).
TxListener = Callable[[int | None, int, bool], None]


def _event_category(packet: Packet) -> str:
    """Engine event-counter category for a frame delivery."""
    return "data" if packet.kind is PacketKind.DATA else "control"


class Network:
    """A MANET instance.

    Parameters
    ----------
    engine:
        The discrete-event engine driving this network.
    field:
        Deployment area.
    mobility_factory:
        ``(node_id, rng) -> MobilityModel`` builder, called once per
        node with a per-node random stream.
    n_nodes:
        Number of nodes.
    radio:
        Physical-layer parameters (250 m unit disk by default).
    hello_interval:
        Beacon period, seconds.
    snapshot_resolution:
        Maximum staleness of the cached position snapshot; at the
        paper's top speed (8 m/s) the default 0.2 s bounds the
        position error to 1.6 m, negligible against a 250 m radius.
    keypair_bits:
        RSA modulus width for node keypairs (functional toy keys;
        realistic key *cost* is charged by the crypto cost model).
    carrier_sense_factor:
        Carrier-sense radius as a multiple of the transmission range
        (802.11's ~2.2× is the default) for the contention-load count.
    initial_positions:
        Optional ``(n_nodes, 2)`` t=0 deployment (e.g. a shared-memory
        view handed down by the sweep executor).  The array is copied
        and pre-seeds the spatial index, so the first snapshot refresh
        adopts positions incrementally instead of building the index
        from scratch.  Results are identical with or without it — even
        a stale array only costs a rebuild, never correctness.
    """

    def __init__(
        self,
        engine: Engine,
        field: Field,
        mobility_factory: Callable[[int, np.random.Generator], MobilityModel],
        n_nodes: int,
        radio: RadioModel | None = None,
        hello_interval: float = 1.0,
        snapshot_resolution: float = 0.2,
        keypair_bits: int = 64,
        carrier_sense_factor: float = 2.2,
        neighbor_ttl: float | None = None,
        initial_positions: np.ndarray | None = None,
    ) -> None:
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        self.engine = engine
        self.field = field
        self.radio = radio if radio is not None else RadioModel()
        self.hello_interval = hello_interval
        self.snapshot_resolution = snapshot_resolution
        self.cs_range = carrier_sense_factor * self.radio.range_m
        self.mac = Mac80211Dcf(self.radio, engine.rng.stream("mac"))
        ttl = neighbor_ttl if neighbor_ttl is not None else 3.0 * hello_interval

        keypairs = generate_keypairs(
            engine.rng.stream("keys"), n_nodes, bits=keypair_bits
        )
        self.nodes: list[Node] = []
        for i, keypair in enumerate(keypairs):
            node_rng = engine.rng.stream(f"node-{i}")
            mobility = mobility_factory(i, node_rng)
            self.nodes.append(
                Node(i, mobility, keypair, node_rng, neighbor_ttl=ttl)
            )

        # Position snapshot cache.  ``_snapshot_positions`` is always
        # the array the grid index was built over; ``_snapshot_scratch``
        # is a second (N, 2) buffer the next refresh interpolates into,
        # so old and new positions can be diffed without allocating.
        self._snapshot_time: float = -1.0
        # Per-node long-term public keys (keypairs never rotate), built
        # lazily for the hello round's row construction.
        self._publics: list | None = None
        self._snapshot_positions: np.ndarray | None = None
        self._snapshot_scratch: np.ndarray | None = None
        self._snapshot_index: GridIndex | None = None
        self._snapshot_force_rebuild = False
        if initial_positions is not None:
            seed_pos = np.array(initial_positions, dtype=np.float64)
            if seed_pos.shape != (n_nodes, 2):
                raise ValueError(
                    f"initial_positions must have shape ({n_nodes}, 2), "
                    f"got {seed_pos.shape}"
                )
            # ``_snapshot_time`` stays stale (-1.0): the first
            # ``snapshot()`` call interpolates real positions and
            # incrementally adopts them into this pre-built index.
            self._snapshot_index = GridIndex(seed_pos, self.radio.range_m)
            self._snapshot_positions = seed_pos
        self._mobilities = [node.mobility for node in self.nodes]
        # Segment-cached batch interpolator: bit-identical to
        # positions_at() but only consults models whose trajectory leg
        # expired since the previous refresh.
        self._interpolator = SnapshotInterpolator(self._mobilities)
        #: snapshot maintenance counters (diagnostics / benchmarks)
        self.snapshot_rebuilds = 0
        self.snapshot_incremental = 0

        # Active-node mask, invalidated by node fail()/restore() hooks
        # so neighbor queries need not re-check every hit's flag.
        self._active_mask: np.ndarray | None = None
        # Reused all-population buffer for hello-round interpolation.
        self._hello_pos_buf: np.ndarray | None = None
        for node in self.nodes:
            node.on_state_change = self._on_node_state_change

        # In-flight transmissions for contention, kept as a min-heap on
        # end time: (end_time, x, y).  Expired entries pop off the
        # front instead of rebuilding the list on every load query.
        self._in_flight: list[tuple[float, float, float]] = []

        #: pluggable metrics sink
        self.tx_listener: TxListener | None = None
        self._hello_tasks: list[PeriodicTask] = []
        #: counters
        self.hello_tx = 0
        self.unicast_tx = 0
        self.broadcast_tx = 0
        #: cumulative radio airtime (seconds) for energy accounting
        self.airtime_tx_s = 0.0
        self.airtime_rx_s = 0.0
        #: size of a hello beacon frame on the air, bytes
        self.hello_size_bytes = 32

    # ------------------------------------------------------------------
    # positions and snapshots
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of nodes in the network."""
        return len(self.nodes)

    def position_of(self, node_id: int) -> Point:
        """Exact position of a node at the current simulation time."""
        return self.nodes[node_id].position(self.engine.now)

    def batch_positions(
        self, t: float, out: np.ndarray | None = None
    ) -> np.ndarray:
        """All-population positions at ``t`` via the cached interpolator.

        Bit-identical to ``positions_at`` over every node's mobility
        model, but only models whose cached trajectory leg expired are
        consulted in Python — the interpolation itself is a handful of
        whole-array operations.  Shared by the snapshot path, hello
        rounds, and location-service write rounds.
        """
        return self._interpolator(t, out=out)

    #: Incremental-update cutover: above this fraction of cell-crossing
    #: nodes a from-scratch rebuild is cheaper than per-node rebucketing.
    _REBUCKET_FRACTION = 0.3

    def snapshot(self) -> tuple[np.ndarray, GridIndex]:
        """Cached (positions, spatial index) at the current time.

        Refreshed when the cache is ``snapshot_resolution`` seconds old
        or older (so ``snapshot_resolution=0.0`` means "always fresh").
        A refresh hands the newly interpolated positions to
        :meth:`GridIndex.adopt_positions`, which rebuckets only nodes
        that crossed a cell boundary, falling back to a from-scratch
        rebuild when more than ``_REBUCKET_FRACTION`` of the nodes
        crossed cells or a node changed state since the last refresh.
        Both paths yield result-identical indices.
        """
        now = self.engine.now
        index = self._snapshot_index
        if (
            index is not None
            and now - self._snapshot_time < self.snapshot_resolution
        ):
            assert self._snapshot_positions is not None
            return self._snapshot_positions, index

        # Batch query: one vectorised interpolation over all nodes
        # (node i's mobility fills row i) into the spare buffer, so the
        # cached array (still owned by the index) survives for diffing.
        n = self.n_nodes
        scratch = self._snapshot_scratch
        if scratch is None or scratch.shape != (n, 2):
            scratch = np.empty((n, 2), dtype=np.float64)
        pos = self._interpolator(now, out=scratch)

        old = self._snapshot_positions
        if (
            index is not None
            and not self._snapshot_force_rebuild
            and old is not None
            and len(index) == n
        ):
            crossed = index.adopt_positions(
                pos, max_crossed=int(self._REBUCKET_FRACTION * n)
            )
            if crossed >= 0:
                # The index adopted ``pos``; the previous array becomes
                # the next refresh's interpolation buffer.
                self.snapshot_incremental += 1
                self._snapshot_positions = pos
                self._snapshot_scratch = old
                self._snapshot_time = now
                return pos, index

        self._snapshot_index = GridIndex(pos, self.radio.range_m)
        self.snapshot_rebuilds += 1
        # The index took ownership of ``pos``; recycle the previous
        # array (if any) as the next refresh's interpolation buffer.
        self._snapshot_positions = pos
        self._snapshot_scratch = old
        self._snapshot_time = now
        self._snapshot_force_rebuild = False
        return pos, self._snapshot_index

    def _on_node_state_change(self, _node: Node) -> None:
        self._active_mask = None
        # Conservative: the next snapshot refresh rebuilds the index
        # from scratch instead of diffing (the cache itself stays valid
        # until it ages out, exactly as before).
        self._snapshot_force_rebuild = True

    def active_mask(self) -> np.ndarray:
        """Boolean mask of live nodes, cached until a node flips state."""
        if self._active_mask is None:
            self._active_mask = np.fromiter(
                (n.active for n in self.nodes), dtype=bool, count=self.n_nodes
            )
        return self._active_mask

    def neighbors_of(self, node_id: int) -> list[int]:
        """Oracle: live node ids within radio range now (excl. self)."""
        _, index = self.snapshot()
        p = self.position_of(node_id)
        hits = index.query_radius(p.x, p.y, self.radio.range_m)
        live = hits[self.active_mask()[hits]]
        return [int(i) for i in live if i != node_id]

    def nodes_in_rect(self, rect: Rect) -> list[int]:
        """Oracle: node ids currently inside ``rect`` (half-open)."""
        _, index = self.snapshot()
        return [int(i) for i in index.query_rect(rect.x0, rect.y0, rect.x1, rect.y1)]

    def node_nearest_to(self, point: Point, exclude: int | None = None) -> int:
        """Oracle: id of the node nearest to ``point``."""
        _, index = self.snapshot()
        return index.nearest(point.x, point.y, exclude=exclude)

    # ------------------------------------------------------------------
    # contention load
    # ------------------------------------------------------------------
    def _local_load(self, around: Point) -> float:
        """Concurrent in-flight transmissions within carrier sense."""
        now = self.engine.now
        in_flight = self._in_flight
        # Expired transmissions sit at the heap front; pop them off.
        while in_flight and in_flight[0][0] <= now:
            heapq.heappop(in_flight)
        cs2 = self.cs_range * self.cs_range
        ax = around.x
        ay = around.y
        count = 0
        for _, x, y in in_flight:
            dx = x - ax
            dy = y - ay
            if dx * dx + dy * dy <= cs2:
                count += 1
        return float(count)

    def _register_tx(self, origin: Point, duration: float) -> None:
        heapq.heappush(
            self._in_flight, (self.engine.now + duration, origin.x, origin.y)
        )

    # ------------------------------------------------------------------
    # communication primitives
    # ------------------------------------------------------------------
    def unicast(
        self,
        sender_id: int,
        receiver_id: int,
        packet: Packet,
        on_failed: Callable[[str], None] | None = None,
        flow: int | None = None,
        overhear_fork: int | None = None,
    ) -> None:
        """One-hop acknowledged frame exchange.

        Failure modes: the receiver is out of range (stale neighbor
        table) or the MAC retry limit is exhausted.  Delivery invokes
        the receiver's protocol hook; failure invokes
        ``on_failed(reason)`` after the wasted airtime elapses.  The
        receiver owns the delivered packet.

        ``overhear_fork`` optionally names a promiscuous listener by
        node id: if it is active and in range of the sender when the
        frame goes on the air, it is delivered a fork of ``packet``
        (taken before this exchange touches it) with the same MAC
        timing as the exchange — radio frames are broadcast by nature,
        ACKed or not.  No copy is made for a listener that cannot hear.
        """
        if sender_id == receiver_id:
            raise ValueError("unicast to self")
        sender = self.nodes[sender_id]
        receiver = self.nodes[receiver_id]
        now = self.engine.now
        spos = sender.position(now)
        rpos = receiver.position(now)
        dist = spos.distance_to(rpos)
        overheard = None
        if (
            overhear_fork is not None
            and overhear_fork != sender_id
            and overhear_fork != receiver_id
        ):
            listener = self.nodes[overhear_fork]
            if listener.active and self.radio.in_range(
                spos.distance_to(listener.position(now))
            ):
                overheard = packet.fork()
        packet.record_visit(sender_id)

        airtime = self.radio.tx_time(packet.size_bytes)
        if not receiver.active:
            # Compromised / disabled node: frames go unacknowledged.
            outcome = MacOutcome(False, airtime, 1)
            reason = "dead-receiver"
        elif not self.radio.in_range(dist):
            # All retries burn airtime with no receiver in range.
            outcome = MacOutcome(False, airtime, 1)
            reason = "out-of-range"
        else:
            outcome = self.mac.unicast(
                packet.size_bytes, dist, self._local_load(spos), flow=flow
            )
            reason = "retry-exhausted"

        sender.tx_count += outcome.attempts
        packet.transmissions += outcome.attempts
        self.unicast_tx += outcome.attempts
        self.airtime_tx_s += outcome.attempts * airtime
        if outcome.success:
            self.airtime_rx_s += airtime
        self._register_tx(spos, outcome.delay_s)
        if self.tx_listener is not None:
            self.tx_listener(flow, outcome.attempts, outcome.success)

        category = _event_category(packet)
        if outcome.success:
            self.engine.schedule_deliver(
                now + outcome.delay_s, receiver, packet, category=category
            )
        elif on_failed is not None:
            self.engine.schedule_in(
                outcome.delay_s, lambda r=reason: on_failed(r),
                category=category, cancellable=False,
            )

        if overheard is not None:
            self.engine.schedule_deliver(
                now + outcome.delay_s, listener, overheard,
                category=_event_category(overheard),
            )

    def local_broadcast(
        self,
        sender_id: int,
        packet: Packet,
        flow: int | None = None,
        restrict_to: Sequence[int] | None = None,
    ) -> list[int]:
        """One-hop unacknowledged broadcast.

        The frame on the air is one snapshot of ``packet``: a
        :meth:`~repro.net.packet.Packet.fork` marked
        :attr:`~repro.net.packet.Packet.shared`, taken once and handed
        to every in-range receiver, in receiver order.  Receivers must
        treat it as read-only: a receiver that acts on the frame takes
        its own branch with :meth:`~repro.net.packet.Packet.accept`
        (own header, own trace, its visit recorded), so one receiver
        mutating per-hop routing state cannot corrupt another's view,
        and a receiver that drops the frame costs no copy.  Later
        changes to ``packet`` by the sender do not reach the frame.

        ``restrict_to`` optionally filters the receiver set by node
        id — used by ALERT's destination-zone delivery where only zone
        members process the frame (others drop it at the link layer).

        Returns the list of receiver ids (empty if the frame collided).
        """
        sender = self.nodes[sender_id]
        now = self.engine.now
        spos = sender.position(now)
        packet.record_visit(sender_id)
        outcome = self.mac.broadcast(packet.size_bytes, self._local_load(spos))
        sender.tx_count += outcome.attempts
        packet.transmissions += outcome.attempts
        self.broadcast_tx += outcome.attempts
        self.airtime_tx_s += self.radio.tx_time(packet.size_bytes)
        self._register_tx(spos, outcome.delay_s)
        if self.tx_listener is not None:
            self.tx_listener(flow, outcome.attempts, outcome.success)
        if not outcome.success:
            return []

        receivers = self.neighbors_of(sender_id)
        self.airtime_rx_s += self.radio.tx_time(packet.size_bytes) * len(receivers)
        if restrict_to is not None:
            allowed = set(restrict_to)
            receivers = [r for r in receivers if r in allowed]

        if not receivers:
            return receivers
        frame = packet.fork()
        frame.shared = True
        category = _event_category(packet)
        t_deliver = now + outcome.delay_s
        nodes = self.nodes
        deliver = self.engine.schedule_deliver
        for rid in receivers:
            deliver(t_deliver, nodes[rid], frame, category=category)
        return receivers

    # ------------------------------------------------------------------
    # hello beacons
    # ------------------------------------------------------------------
    def start_hello(self) -> None:
        """Start periodic hello beacons on every node.

        Beacons are processed as one *round* per interval: every node
        emits once and neighbor tables update from a single position
        snapshot.  (Real beacons are jittered within the interval to
        avoid collisions; since hello frames are not contended through
        the MAC model, collapsing a round into one event is
        behaviourally identical and orders of magnitude cheaper — one
        snapshot instead of N per interval.)  A warm-up round at t≈0
        populates the tables so the first data packets can route.
        """
        rng = self.engine.rng.stream("hello")
        offset = float(rng.uniform(0.05, 0.2))
        task = PeriodicTask(
            self.engine,
            self.hello_interval,
            self._emit_hello_round,
            jitter=0.1 * self.hello_interval,
            rng=rng,
            start_offset=offset,
            category="hello",
        )
        self._hello_tasks.append(task)

    def _emit_hello_round(self) -> None:
        """One beacon round: every live node advertises to its neighbors.

        Batched: the first transmitter's state is built exactly as the
        scalar sequence (pseudonym fuzz draw, then position/trajectory
        draw, then the round's snapshot refresh — where the scalar
        path's ``neighbors_of`` would refresh it); the remaining
        transmitters' pseudonyms are then drawn in ascending node order
        and their positions come from one vectorised pass — read
        straight off the snapshot when it was interpolated at exactly
        this instant (bit-identical to ``Trajectory.at``, and the
        refresh already extended every trajectory, so the scalar loop
        would have drawn nothing), else batch-interpolated via
        :func:`positions_at` over the same models in the same order
        (identical draw sequence).  Per node the stream order is
        pseudonym-then-position, as in the scalar loop; streams are
        per-node (per-group for RPGM, which both passes visit in
        ascending order), so cross-node interleaving is draw-order
        neutral.  The in-range test runs as a vectorised pass instead
        of one grid query per transmitter: transmitters are grouped by
        grid cell via :meth:`GridIndex.grouped_candidates`, so the
        arithmetic scales with local density instead of N², and
        receiver tables ingest each round's rows through
        :meth:`NeighborTable.ingest_shared`.  The pass repeats
        ``GridIndex.query_radius``'s arithmetic (the candidate set is a
        superset filtered by this exact predicate), so the accepted
        pairs — and therefore every metric — are bit-identical to the
        scalar round, kept as the test oracle
        ``tests.oracles.emit_hello_round_scalar``.
        """
        now = self.engine.now
        nodes = self.nodes
        active = self.active_mask()
        tx_ids = np.flatnonzero(active)
        tx_list = tx_ids.tolist()
        n_tx = int(tx_ids.size)
        if n_tx == 0:
            return
        hello_air = self.radio.tx_time(self.hello_size_bytes)
        # First transmitter exactly as the scalar sequence: entry built
        # (pseudonym draw, then position draw), then the round's
        # snapshot refresh.
        i0 = tx_list[0]
        node0 = nodes[i0]
        first = NeighborEntry(
            link_address=i0,
            pseudonym=node0.pseudonym_at(now),
            position=node0.position(now),
            public_key=node0.keypair.public,
            last_seen=now,
        )
        snap_pos, snap_index = self.snapshot()
        # Round counters in ascending order — the same sequence of
        # float adds as the per-transmitter loop.
        self.hello_tx += n_tx
        air = self.airtime_tx_s
        for i in tx_list:
            nodes[i].tx_count += 1
            air += hello_air
        self.airtime_tx_s = air
        rest = tx_list[1:]
        # Inlined ``pseudonym_at`` fast path: with a 30 s lifetime and
        # ~1 s rounds, almost no pseudonym rotates in a given round, so
        # the common case is one validity test and a digest read;
        # rotation falls back to the full call (same draws, same
        # manager state as the scalar path).
        pseudonyms = []
        _append = pseudonyms.append
        for i in rest:
            mgr = nodes[i].pseudonyms
            cur = mgr._current
            if cur is not None and cur.valid_at(now):
                _append(cur.digest)
            else:
                _append(mgr.current(now).digest)
        centers = np.empty((n_tx, 2), dtype=np.float64)
        p0 = first.position
        centers[0, 0] = p0.x
        centers[0, 1] = p0.y
        if rest:
            if self._snapshot_time == now:
                # The snapshot was interpolated at exactly this instant
                # (bit-identical to the trajectory read) and refreshing
                # it extended every trajectory through ``now`` — the
                # scalar position calls would replay these values with
                # no further draws.
                centers[1:] = snap_pos[tx_ids[1:]]
            else:
                # Snapshot still fresh from an earlier instant: batch-
                # interpolate at ``now`` through the segment-cached
                # interpolator (bit-identical to per-model
                # ``positions_at``; stale legs extend in ascending node
                # order, the same per-stream draw sequence the scalar
                # loop and the next snapshot refresh would use).
                buf = self._hello_pos_buf
                if buf is None or buf.shape[0] != len(nodes):
                    buf = self._hello_pos_buf = np.empty(
                        (len(nodes), 2), dtype=np.float64
                    )
                self._interpolator(now, out=buf)
                centers[1:] = buf[tx_ids[1:]]
        # Positional construction (field order: link_address, pseudonym,
        # position, public_key, last_seen) builds every advertised row
        # of the round; ``map`` keeps the per-row work (one frozen
        # Point, one entry) inside C-level iteration.
        entries: list[NeighborEntry] = [first]
        if rest:
            publics = self._publics
            if publics is None:
                publics = self._publics = [
                    node.keypair.public for node in nodes
                ]
            entries += map(
                NeighborEntry,
                rest,
                pseudonyms,
                map(Point, centers[1:, 0].tolist(), centers[1:, 1].tolist()),
                [publics[i] for i in rest],
                repeat(now),
            )
        r = self.radio.range_m
        r2 = r * r
        round_rxs: list[np.ndarray] = []
        round_txs: list[np.ndarray] = []
        # Cell-grouped pass: transmitters sharing a grid cell share
        # one candidate gather (their 3×3-cell neighborhood), so the
        # pairwise test touches ~local-density rows per transmitter
        # instead of all N.  The candidate set is a superset of
        # every true receiver (cell size ≥ radius), filtered by the
        # exact predicate below — accepted pairs are identical to
        # per-transmitter ``query_radius`` calls, and the airtime
        # accumulation loop afterwards adds per-transmitter terms in
        # ascending transmitter order, as the scalar round does.
        # With no failed nodes (the common case) the per-group
        # active filter is an identity copy — skip it wholesale.
        all_active = bool(active.all())
        for q, cand in snap_index.grouped_candidates(centers, r):
            if not all_active:
                cand = cand[active[cand]]
                if cand.size == 0:
                    continue
            # one fancy-index gather per group; the column views
            # reproduce the reference dx*dx + dy*dy term order
            sp = snap_pos[cand]
            cq = centers[q]
            dx = sp[:, :1] - cq[:, 0]
            dy = sp[:, 1:] - cq[:, 1]
            dx *= dx
            dy *= dy
            dx += dy
            rl, tl = np.nonzero(dx <= r2)
            if rl.size:
                round_rxs.append(cand[rl])
                round_txs.append(q[tl])
        # Self-pairs are excluded in ONE global compare over the
        # round's accepted pairs (each transmitter is its own
        # candidate exactly once), and the per-transmitter receiver
        # counts come from ONE bincount over the surviving pair
        # list — identical counts to per-group exclusion matrices
        # and scatters, without ~2 small-array passes per grid
        # cell.  Pair order within a receiver differs from the
        # ascending-transmitter order only across groups, which is
        # unobservable: each (rx, tx) pair appears once per round
        # and every table read sorts by address.
        if round_rxs:
            if len(round_rxs) == 1:
                rxs, txs = round_rxs[0], round_txs[0]
            else:
                rxs = np.concatenate(round_rxs)
                txs = np.concatenate(round_txs)
            keep = rxs != tx_ids[txs]
            rxs = rxs[keep]
            txs = txs[keep]
            counts = np.bincount(txs, minlength=n_tx)
        else:
            rxs = txs = None
            counts = np.zeros(n_tx, dtype=np.int64)
        air_rx = self.airtime_rx_s
        for c in counts.tolist():
            air_rx += hello_air * c
        self.airtime_rx_s = air_rx
        if rxs is None or rxs.size == 0:
            return
        # Group the pairs by receiver (stable, so each receiver's rows
        # keep their order).  The sort runs for every round, one
        # candidate group or many, so there is one path to test.
        # Narrow pair arrays: stable-sorting uint16 keys is ~4× faster
        # than int64 at these sizes (and the sort-order gathers shrink
        # with them); node ids below 65536 cast losslessly, so the
        # permutation is identical.
        if len(nodes) <= 0xFFFF:
            rxs = rxs.astype(np.uint16)
            txs = txs.astype(np.uint16)
        order = np.argsort(rxs, kind="stable")
        rxs = rxs[order]
        txs = txs[order]
        # ``txs`` stays a numpy array: receivers that never read their
        # table before the slice is superseded never pay to materialise
        # their rows, so converting the whole round's pair list to
        # Python ints up front would mostly be wasted.
        starts = np.flatnonzero(np.diff(rxs)) + 1
        ends = starts.tolist()
        heads = rxs[[0, *ends]].tolist()
        ends.append(len(txs))
        a = 0
        for rid, b in zip(heads, ends):
            nodes[rid].neighbors.ingest_shared(entries, txs, a, b, tx_list)
            a = b

    def stop_hello(self) -> None:
        """Stop all beacon tasks (end of a run)."""
        for task in self._hello_tasks:
            task.stop()
        self._hello_tasks.clear()
