"""A network node: identity, keys, mobility, and the receive hook."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.crypto.keys import KeyPair
from repro.crypto.pseudonym import PseudonymManager
from repro.geometry.primitives import Point
from repro.mobility.base import MobilityModel
from repro.net.neighbor_table import NeighborTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.packet import Packet

#: Signature of a protocol's packet-arrival hook: (receiver, packet).
ReceiveHook = Callable[["Node", "Packet"], None]


class Node:
    """One mobile node.

    The node owns its long-term keypair, its rotating pseudonym, its
    neighbor table, and its mobility; the routing protocol attached to
    the network registers a receive hook that fires whenever the link
    layer delivers a frame to this node.

    Parameters
    ----------
    node_id:
        Substrate-level index (stands in for the radio hardware
        address; never placed in protocol headers).
    mobility:
        This node's motion.
    keypair:
        Long-term RSA keypair (public half published via the location
        service).
    rng:
        Private random stream (pseudonym fuzz etc.).
    neighbor_ttl:
        Expiry for neighbor-table rows, seconds.
    pseudonym_lifetime:
        Rotation period for the dynamic pseudonym, seconds.
    """

    def __init__(
        self,
        node_id: int,
        mobility: MobilityModel,
        keypair: KeyPair,
        rng: np.random.Generator,
        neighbor_ttl: float = 3.0,
        pseudonym_lifetime: float = 30.0,
    ) -> None:
        self.id = node_id
        self.mobility = mobility
        self.keypair = keypair
        mac = node_id.to_bytes(6, "big")
        self.pseudonyms = PseudonymManager(mac, rng, lifetime=pseudonym_lifetime)
        self.neighbors = NeighborTable(ttl=neighbor_ttl)
        self.on_receive: ReceiveHook | None = None
        #: substrate hook fired when fail()/restore() actually flips the
        #: node's state; the owning Network uses it to invalidate its
        #: cached active-node mask and to force the next position
        #: snapshot refresh to rebuild its spatial index from scratch
        #: instead of diffing incrementally.
        self.on_state_change: Callable[["Node"], None] | None = None
        #: per-node energy proxy: frames transmitted / received
        self.tx_count = 0
        self.rx_count = 0
        #: False once the node is disabled/compromised (DoS experiments);
        #: inactive nodes neither beacon, relay, nor acknowledge frames.
        self.active = True
        # Last (t, Point) answered by position(): forwarding decisions
        # ask for several positions at the same event time, and Point
        # is frozen, so replaying the previous answer is free and safe.
        self._pos_at: float = -1.0
        self._pos_cache: Point | None = None

    def fail(self) -> None:
        """Disable the node (compromise / battery death)."""
        if not self.active:
            return  # already down: no state flip, no invalidation
        self.active = False
        if self.on_state_change is not None:
            self.on_state_change(self)

    def restore(self) -> None:
        """Bring the node back online."""
        if self.active:
            return  # already up: no state flip, no invalidation
        self.active = True
        if self.on_state_change is not None:
            self.on_state_change(self)

    def position(self, t: float) -> Point:
        """True position at time ``t`` (substrate/oracle use only)."""
        if t == self._pos_at:
            return self._pos_cache
        p = self.mobility.position(t)
        self._pos_at = t
        self._pos_cache = p
        return p

    def prime_position(self, t: float, p: Point) -> None:
        """Seed the :meth:`position` cache with an externally computed fix.

        Batched substrate passes (location-service write rounds) evaluate
        whole populations through ``positions_at`` and hand each node its
        value here, leaving the cache in the same state a scalar
        ``position(t)`` call would have.
        """
        self._pos_at = t
        self._pos_cache = p

    def pseudonym_at(self, t: float) -> bytes:
        """The node's valid pseudonym digest at ``t``."""
        return self.pseudonyms.current(t).digest

    def deliver(self, packet: "Packet") -> None:
        """Link-layer delivery: count it and invoke the protocol hook.

        A unicast packet is owned by its receiver, so its visit is
        recorded here.  A broadcast frame (``packet.shared``) is shared
        by every receiver and reaches the hook unchanged; a receiver
        that acts on it records its visit on its own branch via
        :meth:`~repro.net.packet.Packet.accept`.
        """
        self.rx_count += 1
        if not packet.shared:
            packet.record_visit(self.id)
        if self.on_receive is not None:
            self.on_receive(self, packet)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.id}>"
