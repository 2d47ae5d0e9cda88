"""The shared-frame contract of one-hop broadcasts, for all five protocols.

``Network.local_broadcast`` hands every receiver the same read-only
frame; a receiver that acts on it takes its own branch with
``Packet.accept``.  These tests run short seeded scenarios with every
broadcast frame deep-copied the moment it goes on the air, and assert
that no handler changed a frame afterwards — and that every delivery
was recorded on a branch that holds the destination's visit.
"""

from __future__ import annotations

import copy

import pytest

from repro.core.packet_format import AlertHeader, AlertPacketType
from repro.core.zones import Direction
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.geometry.primitives import Rect
from repro.net.network import Network
from repro.net.packet import Packet, PacketKind

SCENARIOS = {
    "alert": ("ALERT", {}),
    "alert-defended-notify-confirm": (
        "ALERT",
        {
            "intersection_defense": True,
            "notify_and_go": True,
            "enable_confirmation": True,
        },
    ),
    "gpsr": ("GPSR", {}),
    "zap": ("ZAP", {}),
    "alarm": ("ALARM", {}),
    "ao2p": ("AO2P", {}),
}


def _frame_state(frame: Packet) -> tuple:
    """Everything a receiver could change on a frame (uid excluded)."""
    return (
        frame.shared,
        frame.kind,
        frame.src,
        frame.dst,
        frame.size_bytes,
        copy.deepcopy(frame.header),
        frame.payload,
        frame.created_at,
        frame.flow_id,
        list(frame.trace),
        frame.transmissions,
        frame.crypto_delay,
    )


@pytest.fixture
def sent_frames(monkeypatch):
    """Record ``(frame, state when sent)`` for every broadcast frame."""
    sent: list[tuple[Packet, tuple]] = []
    original = Network.local_broadcast

    def recording_broadcast(self, sender_id, packet, **kwargs):
        frames: dict[int, Packet] = {}
        engine = self.engine
        schedule = engine.schedule_deliver

        def capture(t, node, pkt, **kw):
            frames[id(pkt)] = pkt
            return schedule(t, node, pkt, **kw)

        engine.schedule_deliver = capture
        try:
            receivers = original(self, sender_id, packet, **kwargs)
        finally:
            del engine.schedule_deliver
        assert len(frames) <= 1, "one frame per broadcast"
        for frame in frames.values():
            assert frame.shared and frame is not packet
            sent.append((frame, _frame_state(frame)))
        return receivers

    monkeypatch.setattr(Network, "local_broadcast", recording_broadcast)
    return sent


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_frames_unchanged_after_run(name, sent_frames):
    protocol, options = SCENARIOS[name]
    cfg = ExperimentConfig(
        protocol=protocol,
        n_nodes=60,
        field_size=500.0,
        n_pairs=4,
        send_interval=0.5,
        duration=6.0,
        h_override=None,
        alert_options=options,
        seed=7,
    )
    result = run_experiment(cfg)
    if protocol in ("ALERT", "ZAP"):
        assert sent_frames, "scenario broadcast nothing"
    for frame, state in sent_frames:
        assert _frame_state(frame) == state
    delivered = [f for f in result.metrics.flows() if f.delivered]
    assert delivered, "scenario delivered nothing"
    for flow in delivered:
        # Recorded on the destination's own branch, not on a frame.
        assert flow.path and flow.path[-1] == flow.dst


def _zone_frame(zone: Rect, dst: int) -> Packet:
    header = AlertHeader(
        ptype=AlertPacketType.RREQ,
        p_src=b"s" * 20,
        p_dst=b"d" * 20,
        zone_dst=zone,
        zone_src_enc=b"",
        td=zone.center,
        h=0,
        h_max=3,
        direction=Direction.VERTICAL,
        session=1,
        seq=0,
        zone_stage=1,
    )
    frame = Packet(
        kind=PacketKind.DATA, src=0, dst=dst, size_bytes=64, header=header
    ).fork()
    frame.shared = True
    return frame


def test_frame_rejected_out_of_zone_stays_duplicate_in_zone(static_network):
    """A frame dropped outside ``Z_D`` still counts as seen there.

    A node first hears a zone broadcast while outside the zone and
    drops it without a copy.  Heard again after the node moved into
    the zone, the same frame is a duplicate: no zone phase starts.
    """
    from repro.core.alert import AlertProtocol
    from repro.location.service import LocationService

    net = static_network
    proto = AlertProtocol(net, LocationService(net))
    zone_phases = []
    proto._zone_phase = lambda n, p: zone_phases.append(n.id)
    node = net.nodes[1]
    here = node.position(net.engine.now)
    zone = Rect(here.x + 50.0, here.y + 50.0, here.x + 150.0, here.y + 150.0)
    assert not zone.contains(here)
    frame = _zone_frame(zone, dst=2)
    state = _frame_state(frame)

    proto._receive(node, frame)
    assert zone_phases == [] and len(proto._seen) == 1

    node.position = lambda t: zone.center  # moved into Z_D
    proto._receive(node, frame)
    assert zone_phases == [] and len(proto._seen) == 1
    assert _frame_state(frame) == state

    # A zone member that had not heard the frame yet does act on it.
    other = net.nodes[3]
    other.position = lambda t: zone.center
    proto._receive(other, frame)
    assert zone_phases == [3]
