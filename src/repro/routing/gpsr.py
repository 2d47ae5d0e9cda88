"""GPSR: Greedy Perimeter Stateless Routing (Karp & Kung; paper ref. [15]).

The baseline of the paper's evaluation: "a packet is always forwarded
to the node nearest to the destination.  When such a node does not
exist, GPSR uses perimeter forwarding to find the hop that is the
closest to the destination."

Implementation notes
--------------------
* Greedy mode forwards to the neighbor-table entry closest to the
  target position, requiring strict progress.
* Perimeter mode planarises the local neighborhood with the Gabriel
  graph and walks it by the right-hand rule, recovering to greedy as
  soon as the packet is closer to the target than where it entered
  perimeter mode.  (The full face-crossing test of the original paper
  is omitted; the TTL bounds any residual walks, matching the paper's
  "forwarding continues until the routing path length reaches a
  predefined TTL … set to 10".)
* The greedy/Gabriel/right-hand-rule helpers are module-level functions
  because ALERT reuses them for its RF-to-RF segments (§2.3: "Between
  any two RFs, the relays perform the GPSR routing").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.net.neighbor_table import NeighborEntry
from repro.net.node import Node
from repro.net.packet import Packet, PacketKind
from repro.geometry.primitives import Point
from repro.routing.base import RoutingProtocol

_PROGRESS_EPS = 1e-9


# ----------------------------------------------------------------------
# reusable geographic-forwarding primitives
# ----------------------------------------------------------------------
def next_hop_greedy(
    self_pos: Point, target: Point, entries: list[NeighborEntry]
) -> NeighborEntry | None:
    """The neighbor strictly closest to ``target``, or ``None``.

    Returns ``None`` when no neighbor makes progress (a local maximum
    — GPSR's trigger for perimeter mode, and ALERT's trigger for
    declaring the current node a random forwarder).
    """
    best: NeighborEntry | None = None
    own = self_pos.sq_distance_to(target)
    best_d = own
    for e in entries:
        d = e.position.sq_distance_to(target)
        if d < best_d - _PROGRESS_EPS:
            best = e
            best_d = d
    return best


def gabriel_neighbors(
    self_pos: Point, entries: list[NeighborEntry]
) -> list[NeighborEntry]:
    """Local Gabriel-graph planarisation of the one-hop neighborhood.

    Edge (self, v) survives iff no witness w lies strictly inside the
    circle with diameter (self, v).  Planarity is what makes the
    right-hand rule traverse faces instead of looping.
    """
    keep: list[NeighborEntry] = []
    for v in entries:
        mid = self_pos.midpoint(v.position)
        r2 = self_pos.sq_distance_to(v.position) / 4.0
        ok = True
        for w in entries:
            if w is v:
                continue
            if w.position.sq_distance_to(mid) < r2 - _PROGRESS_EPS:
                ok = False
                break
        if ok:
            keep.append(v)
    return keep


def next_hop_right_hand(
    self_pos: Point, reference: Point, entries: list[NeighborEntry]
) -> NeighborEntry | None:
    """First planar neighbor counterclockwise from the reference ray.

    ``reference`` is the previous hop's position (or the target when
    entering perimeter mode).  Returns ``None`` only when there are no
    neighbors at all.
    """
    planar = gabriel_neighbors(self_pos, entries)
    if not planar:
        return None
    ref_angle = math.atan2(reference.y - self_pos.y, reference.x - self_pos.x)
    best: NeighborEntry | None = None
    best_sweep = float("inf")
    for e in planar:
        a = math.atan2(e.position.y - self_pos.y, e.position.x - self_pos.x)
        sweep = (a - ref_angle) % (2.0 * math.pi)
        if sweep < 1e-12:
            sweep = 2.0 * math.pi  # going straight back is the last resort
        if sweep < best_sweep:
            best_sweep = sweep
            best = e
    return best


# ----------------------------------------------------------------------
# the protocol
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GpsrConfig:
    """GPSR tunables.

    Parameters
    ----------
    ttl:
        Maximum hops per packet (paper: 10).
    max_forward_retries:
        Alternative neighbors tried after a link-layer failure before
        the packet is dropped at that hop.
    """

    ttl: int = 10
    max_forward_retries: int = 3


@dataclass
class GpsrHeader:
    """Per-packet GPSR routing state."""

    target: Point
    dst_addr: int
    ttl: int
    mode: str = "greedy"  # or "perimeter"
    perimeter_entry: Point | None = None
    prev_pos: Point | None = None
    retries: int = 0

    def clone(self) -> "GpsrHeader":
        """Independent copy for a broadcast branch (fields immutable)."""
        return replace(self)


class GpsrProtocol(RoutingProtocol):
    """The GPSR baseline protocol."""

    name = "GPSR"

    def __init__(self, network, location, metrics=None, cost_model=None,
                 config: GpsrConfig | None = None) -> None:
        super().__init__(network, location, metrics, cost_model)
        self.config = config if config is not None else GpsrConfig()

    # -- origination ---------------------------------------------------
    def _initiate(self, packet: Packet) -> None:
        record = self.lookup_destination(packet.src, packet.dst)
        packet.header = GpsrHeader(
            target=record.position,
            dst_addr=packet.dst,
            ttl=self.config.ttl,
        )
        node = self.network.nodes[packet.src]
        packet.record_visit(node.id)
        self._forward(node, packet)

    # -- reception -------------------------------------------------------
    def _dispatch(self, node: Node, packet: Packet) -> None:
        if packet.kind is not PacketKind.DATA or not isinstance(
            packet.header, GpsrHeader
        ):
            return
        packet.header.retries = 0  # fresh hop, fresh retry budget
        self._forward(node, packet)

    # -- forwarding core ---------------------------------------------------
    def _forward(self, node: Node, packet: Packet) -> None:
        hdr: GpsrHeader = packet.header
        if node.id == hdr.dst_addr:
            self._delivered(packet)
            return
        if hdr.ttl <= 0:
            self._dropped(packet, "ttl-exhausted")
            return

        now = self.engine.now
        self_pos = node.position(now)
        table = node.neighbors

        # Destination adjacency: if D is a live neighbor, hand it over.
        # (Keyed lookup — same "exists and not expired" predicate the
        # old scan over ``live_entries`` applied.)
        direct = table.get(hdr.dst_addr, now)
        if direct is not None:
            self._transmit(node, direct, packet, self_pos)
            return

        if hdr.mode == "perimeter":
            assert hdr.perimeter_entry is not None
            if (
                self_pos.distance_to(hdr.target)
                < hdr.perimeter_entry.distance_to(hdr.target) - _PROGRESS_EPS
            ):
                hdr.mode = "greedy"
                hdr.perimeter_entry = None

        if hdr.mode == "greedy":
            live = table.live_entries(now)
            choice = next_hop_greedy(self_pos, hdr.target, live)
            if choice is None:
                # Local maximum: enter perimeter mode.
                hdr.mode = "perimeter"
                hdr.perimeter_entry = self_pos
                choice = next_hop_right_hand(
                    self_pos, hdr.prev_pos or hdr.target, live
                )
        else:
            choice = next_hop_right_hand(
                self_pos, hdr.prev_pos or hdr.target,
                table.live_entries(now),
            )

        if choice is None:
            self._dropped(packet, "no-neighbors")
            return
        self._transmit(node, choice, packet, self_pos)

    def _transmit(
        self, node: Node, choice: NeighborEntry, packet: Packet, self_pos: Point
    ) -> None:
        hdr: GpsrHeader = packet.header
        hdr.ttl -= 1
        hdr.prev_pos = self_pos
        self._mark_participant(packet, node.id)
        self.network.unicast(
            node.id,
            choice.link_address,
            packet,
            on_failed=lambda reason: self._on_link_failure(
                node, choice, packet, reason
            ),
            flow=packet.flow_id,
        )

    def _on_link_failure(
        self, node: Node, choice: NeighborEntry, packet: Packet, reason: str
    ) -> None:
        """Blacklist the failed neighbor and retry from the same node."""
        hdr: GpsrHeader = packet.header
        self._report_link_failure(packet, reason)
        node.neighbors.remove(choice.link_address)
        hdr.retries += 1
        hdr.ttl += 1  # the failed hop did not advance the packet
        if hdr.retries > self.config.max_forward_retries:
            self._dropped(packet, f"link-failure:{reason}")
            return
        self._forward(node, packet)
