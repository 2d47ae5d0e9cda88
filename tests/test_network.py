"""Tests for the Network container (unicast, broadcast, beacons)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mobility.base import positions_at
from repro.net.packet import Packet, PacketKind
from tests.conftest import build_network
from tests.oracles import emit_hello_round_scalar


def data_packet(src=0, dst=1, size=512, flow=None):
    return Packet(kind=PacketKind.DATA, src=src, dst=dst, size_bytes=size, flow_id=flow)


class TestSnapshots:
    def test_snapshot_shape(self, static_network):
        pos, idx = static_network.snapshot()
        assert pos.shape == (static_network.n_nodes, 2)
        assert len(idx) == static_network.n_nodes

    def test_snapshot_cached_within_resolution(self, static_network):
        _, a = static_network.snapshot()
        _, b = static_network.snapshot()
        assert a is b

    def test_snapshot_refreshes_after_resolution(self, small_network):
        small_network.snapshot()
        refreshes = (
            small_network.snapshot_rebuilds
            + small_network.snapshot_incremental
        )
        small_network.engine.schedule_in(1.0, lambda: None)
        small_network.engine.run()
        pos, _ = small_network.snapshot()
        # The cache aged out: a new refresh happened (incremental
        # maintenance may reuse the same index object) and the
        # positions reflect the new time.
        assert (
            small_network.snapshot_rebuilds
            + small_network.snapshot_incremental
        ) == refreshes + 1
        np.testing.assert_array_equal(
            pos,
            positions_at(small_network._mobilities, small_network.engine.now),
        )

    def test_neighbors_symmetric(self, static_network):
        net = static_network
        for nid in range(0, net.n_nodes, 7):
            for other in net.neighbors_of(nid):
                assert nid in net.neighbors_of(other)

    def test_neighbors_excludes_self(self, static_network):
        for nid in range(static_network.n_nodes):
            assert nid not in static_network.neighbors_of(nid)

    def test_nodes_in_rect(self, static_network):
        net = static_network
        from repro.geometry.primitives import Rect
        inside = net.nodes_in_rect(Rect(0, 0, 600, 600))
        assert sorted(inside) == list(range(net.n_nodes))

    def test_node_nearest_to(self, static_network):
        net = static_network
        p = net.position_of(3)
        assert net.node_nearest_to(p) == 3
        assert net.node_nearest_to(p, exclude=3) != 3


class TestUnicast:
    def test_in_range_unicast_delivers(self, static_network):
        net = static_network
        a = 0
        nbrs = net.neighbors_of(a)
        assert nbrs, "test network too sparse"
        b = nbrs[0]
        got = []
        net.nodes[b].on_receive = lambda node, pkt: got.append(pkt.uid)
        pkt = data_packet(src=a, dst=b)
        net.unicast(a, b, pkt)
        net.engine.run()
        assert got == [pkt.uid]
        assert pkt.trace[0] == a and pkt.trace[-1] == b

    def test_unicast_to_self_raises(self, static_network):
        with pytest.raises(ValueError):
            static_network.unicast(0, 0, data_packet())

    def test_out_of_range_fails(self, static_network):
        net = static_network
        # Find the pair with maximum distance (certainly out of range
        # of the 250 m radio in a 600 m field: corners).
        import numpy as np
        pos, _ = net.snapshot()
        d2 = ((pos[None] - pos[:, None]) ** 2).sum(-1)
        a, b = np.unravel_index(np.argmax(d2), d2.shape)
        if d2[a, b] ** 0.5 <= net.radio.range_m:
            pytest.skip("all nodes mutually in range")
        failures = []
        net.unicast(int(a), int(b), data_packet(), on_failed=failures.append)
        net.engine.run()
        assert failures == ["out-of-range"]

    def test_tx_listener_invoked(self, static_network):
        net = static_network
        seen = []
        net.tx_listener = lambda flow, attempts, ok: seen.append((flow, ok))
        b = net.neighbors_of(0)[0]
        net.unicast(0, b, data_packet(flow=42), flow=42)
        net.engine.run()
        assert seen and seen[0][0] == 42

    def test_delivery_takes_positive_time(self, static_network):
        net = static_network
        b = net.neighbors_of(0)[0]
        times = []
        net.nodes[b].on_receive = lambda n, p: times.append(net.engine.now)
        net.unicast(0, b, data_packet())
        net.engine.run()
        assert times and times[0] > 0.0


class TestBroadcast:
    def test_broadcast_reaches_neighbors(self, static_network):
        net = static_network
        got = []
        for n in net.nodes:
            n.on_receive = lambda node, pkt: got.append(node.id)
        expect = set(net.neighbors_of(0))
        receivers = net.local_broadcast(0, data_packet(src=0, dst=-1))
        net.engine.run()
        if receivers:  # broadcast may be lost to base_loss (rare)
            assert set(receivers) == expect
            assert set(got) == expect

    def test_restrict_to_filters(self, static_network):
        net = static_network
        nbrs = net.neighbors_of(0)
        allowed = nbrs[:2]
        receivers = net.local_broadcast(
            0, data_packet(src=0, dst=-1), restrict_to=allowed
        )
        assert set(receivers) <= set(allowed)

    def test_forks_are_independent(self, static_network):
        """One snapshot per broadcast, independent of the sender's packet
        and handed to every receiver as is."""
        net = static_network
        seen = []
        for n in net.nodes:
            n.on_receive = lambda node, pkt: seen.append((node.id, pkt))
        packet = data_packet(src=0, dst=-1)
        packet.payload = b"payload"
        receivers = net.local_broadcast(0, packet)
        net.engine.run()
        if len(receivers) < 2:
            return  # collided frame / sparse neighborhood: nothing to check
        frames = [pkt for _, pkt in seen]
        assert [nid for nid, _ in seen] == receivers
        assert len(set(map(id, frames))) == 1
        frame = frames[0]
        assert frame is not packet and frame.shared and not packet.shared
        # The frame is the sender's packet as it went on the air, and no
        # delivery touched it: no receiver's visit, no rewritten payload.
        assert frame.trace == [0] == packet.trace
        assert frame.header is None and frame.payload == b"payload"
        assert {n.id for n in net.nodes if n.rx_count} == set(receivers)

    def test_receiver_header_mutation_cannot_affect_other_branch(
        self, static_network
    ):
        """Header-aliasing regression (the zone-broadcast corruption bug).

        Every receiver that acts on a broadcast must work on its own
        branch: a receiver resetting its per-hop routing state (as ALERT
        does with ``hdr.segment.retries = 0`` and ZAP with
        ``hdr.retries = 0``) once mutated a header shared with every
        sibling branch.  Branches taken with ``accept`` must move
        neither each other, nor the shared frame, nor the sender's
        packet.
        """
        from repro.routing.zap import ZapHeader
        from repro.geometry.primitives import Rect

        net = static_network
        delivered = []
        for n in net.nodes:
            n.on_receive = lambda node, pkt: delivered.append((node.id, pkt))
        packet = data_packet(src=0, dst=-1)
        packet.header = ZapHeader(zone=Rect(0, 0, 100, 100), ttl=12, retries=2)
        receivers = net.local_broadcast(0, packet)
        net.engine.run()
        if len(receivers) < 2:
            return  # collided frame / sparse neighborhood: nothing to check
        (a_id, frame), (b_id, _) = delivered[0], delivered[1]
        a, b = frame.accept(a_id), frame.accept(b_id)
        assert len({a.uid, b.uid, frame.uid, packet.uid}) == 4
        assert a.header is not b.header
        headers = (a.header, b.header, frame.header, packet.header)
        assert len(set(map(id, headers))) == 4
        assert a.trace is not b.trace
        assert a.trace == [0, a_id] and b.trace == [0, b_id]
        assert not a.shared and not b.shared
        # One receiver mutates its per-hop state...
        a.header.retries = 0
        a.header.ttl -= 1
        # ...and neither its sibling, the frame nor the sender's packet moves.
        for other in (b, frame, packet):
            assert other.header.retries == 2
            assert other.header.ttl == 12
        assert frame.trace == [0]


class TestHello:
    def test_beacons_populate_neighbor_tables(self, small_network):
        net = small_network
        net.start_hello()
        net.engine.run(until=0.5)
        populated = sum(1 for n in net.nodes if len(n.neighbors) > 0)
        assert populated >= net.n_nodes * 0.9
        net.stop_hello()

    def test_beacon_entries_match_truth(self, static_network):
        net = static_network
        net.start_hello()
        net.engine.run(until=0.5)
        node = net.nodes[0]
        for e in node.neighbors.live_entries(net.engine.now):
            truth = net.position_of(e.link_address)
            assert truth.distance_to(e.position) < 5.0
        net.stop_hello()

    def test_stop_hello_stops_counting(self, static_network):
        net = static_network
        net.start_hello()
        net.engine.run(until=1.5)
        net.stop_hello()
        count = net.hello_tx
        net.engine.schedule_in(5.0, lambda: None)
        net.engine.run()
        assert net.hello_tx == count


class TestHelloRoundParity:
    """The vectorized round must match the scalar reference exactly."""

    @pytest.mark.parametrize("static", [True, False])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_vectorized_matches_scalar(self, static, seed):
        vec = build_network(seed=seed, static=static)
        ref = build_network(seed=seed, static=static)
        for net in (vec, ref):
            net.engine.schedule_in(0.7, lambda: None)
            net.engine.run()
        vec._emit_hello_round()
        emit_hello_round_scalar(ref)
        assert vec.hello_tx == ref.hello_tx
        assert vec.airtime_tx_s == ref.airtime_tx_s
        assert vec.airtime_rx_s == ref.airtime_rx_s
        now = vec.engine.now
        for a, b in zip(vec.nodes, ref.nodes):
            assert a.tx_count == b.tx_count
            assert a.neighbors.live_entries(now) == b.neighbors.live_entries(now)

    def test_parity_with_dead_nodes(self):
        vec = build_network(seed=4, static=True)
        ref = build_network(seed=4, static=True)
        for net in (vec, ref):
            for nid in (0, 7, 13):
                net.nodes[nid].fail()
        vec._emit_hello_round()
        emit_hello_round_scalar(ref)
        assert vec.hello_tx == ref.hello_tx
        now = vec.engine.now
        for a, b in zip(vec.nodes, ref.nodes):
            assert a.neighbors.live_entries(now) == b.neighbors.live_entries(now)
        # dead nodes never transmit
        assert vec.nodes[0].tx_count == 0

    #: Fields that steer the grouped pass down each of its branches:
    #: one grid cell (a single candidate group), several cells (pairs
    #: from many groups, merged by the receiver sort), and nodes too far
    #: apart to hear each other (no accepted pair: the early return).
    FIELDS = {
        "one-cell": dict(n_nodes=30, field_size=200.0),
        "default": dict(n_nodes=40, field_size=600.0),
        "isolated": dict(n_nodes=6, field_size=100_000.0),
    }

    @pytest.mark.parametrize("failed", [(), (0, 3, 5)], ids=["live", "failed"])
    @pytest.mark.parametrize("field", sorted(FIELDS))
    def test_matches_scalar_on_field(self, field, failed):
        vec = build_network(seed=5, speed=20.0, **self.FIELDS[field])
        ref = build_network(seed=5, speed=20.0, **self.FIELDS[field])
        for net in (vec, ref):
            for nid in failed:
                net.nodes[nid].fail()
        # The second round runs after nodes have moved between cells.
        for t in (0.7, 6.0):
            for net in (vec, ref):
                net.engine.schedule_at(t, lambda: None)
                net.engine.run()
            vec._emit_hello_round()
            emit_hello_round_scalar(ref)
            # The round's own snapshot, still cached at this instant.
            pos, index = vec.snapshot()
            groups = index.grouped_candidates(pos, vec.radio.range_m)
            if field == "one-cell":
                assert len(groups) == 1
            elif field == "default":
                assert len(groups) > 1
            assert vec.hello_tx == ref.hello_tx
            assert vec.airtime_tx_s == ref.airtime_tx_s
            assert vec.airtime_rx_s == ref.airtime_rx_s
            now = vec.engine.now
            for a, b in zip(vec.nodes, ref.nodes):
                assert a.tx_count == b.tx_count
                assert a.neighbors.live_entries(now) == b.neighbors.live_entries(now)
            if field == "isolated":
                assert vec.airtime_rx_s == 0.0
