"""The generic packet record shared by every protocol.

Protocol-specific headers (e.g., ALERT's universal RREQ/RREP/NAK format
of §2.5) ride in ``header``; the link layer only looks at ``size_bytes``
and the addressing fields.  ``trace`` accumulates the node ids a packet
actually visited — the raw material for the participating-nodes and
hops-per-packet metrics (§5.2 metrics 1 and 4).

A one-hop broadcast puts one *shared frame* on the air: a read-only
snapshot (:attr:`Packet.shared`) that every receiver is handed as is.
A receiver that acts on it takes its own branch with
:meth:`Packet.accept`; one that drops it copies nothing.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

_packet_ids = itertools.count(1)


def clone_header(header: Any) -> Any:
    """Copy a protocol header for an independent packet branch.

    Headers that define a ``clone()`` method use it (cheap and
    type-aware — see e.g. :meth:`repro.core.packet_format.AlertHeader.
    clone`); anything else is deep-copied.  ``None`` passes through.
    """
    if header is None:
        return None
    clone = getattr(header, "clone", None)
    if callable(clone):
        return clone()
    return copy.deepcopy(header)


class PacketKind(Enum):
    """Coarse packet classes used by the substrate and metrics."""

    DATA = "data"
    HELLO = "hello"
    COVER = "cover"  # notify-and-go camouflage traffic
    NAK = "nak"
    CONTROL = "control"  # dissemination, location-service, etc.


@dataclass
class Packet:
    """One packet in flight.

    Parameters
    ----------
    kind:
        Coarse class (data / hello / cover / nak / control).
    src, dst:
        *True* endpoint node ids, used only by the harness for metric
        attribution; protocols must never read them for forwarding
        decisions (that would break anonymity by construction).
    size_bytes:
        Payload size on the wire; the MAC charges airtime for it.
    header:
        Protocol-specific header object (opaque to the substrate).
    payload:
        Application bytes (possibly ciphertext).
    created_at:
        Simulation time the packet was born.
    """

    kind: PacketKind
    src: int
    dst: int
    size_bytes: int
    header: Any = None
    payload: bytes = b""
    created_at: float = 0.0
    #: metrics flow this packet belongs to (None for background traffic)
    flow_id: int | None = None
    uid: int = field(default_factory=lambda: next(_packet_ids))
    #: node ids that have transmitted or received this packet, in order
    trace: list[int] = field(default_factory=list)
    #: link-layer transmissions used so far (includes broadcasts)
    transmissions: int = 0
    #: simulated crypto delay accumulated along the path (seconds)
    crypto_delay: float = 0.0
    #: True on a broadcast frame shared by all its receivers: read it,
    #: never mutate it (:meth:`accept` gives a receiver its own copy).
    #: Not a field: it never enters the constructor, and only
    #: ``Network.local_broadcast`` sets it, on the frame's instance.
    shared = False

    @property
    def hops(self) -> int:
        """Number of link traversals recorded in the trace."""
        return max(len(self.trace) - 1, 0)

    def record_visit(self, node_id: int) -> None:
        """Append a node to the trace (consecutive duplicates collapse)."""
        if not self.trace or self.trace[-1] != node_id:
            self.trace.append(node_id)

    def fork(self, **overrides: Any) -> "Packet":
        """An independent, owned copy: fresh uid, shared provenance.

        The copy starts with the parent's trace (so path accounting
        stays meaningful for multicast deliveries) but gets its own
        list object, its own uid, and — unless ``header=`` is passed
        explicitly — its **own header copy** (:func:`clone_header`).
        A fork is never :attr:`shared`, even when the parent is a
        broadcast frame.

        ``Network.local_broadcast`` forks the sender's packet once per
        broadcast to snapshot the frame; receivers fork that frame
        through :meth:`accept` only when they act on it, since they
        mutate per-hop routing state in the header (retry counters,
        TTLs, zone stages) and sharing one header object across
        branches would let one receiver corrupt its siblings.
        """
        clone = object.__new__(Packet)
        d = clone.__dict__
        d.update(self.__dict__)
        if overrides:
            d.update(overrides)
        if "header" not in overrides:
            # clone_header, inlined: this is the hottest copy of a run.
            h = self.header
            if h is not None:
                method = getattr(h, "clone", None)
                h = method() if method is not None else copy.deepcopy(h)
            d["header"] = h
        d["uid"] = next(_packet_ids)
        d["trace"] = list(self.trace)
        d["shared"] = False
        return clone

    def accept(self, node_id: int) -> "Packet":
        """A receiver's own branch of this shared broadcast frame.

        The branch is a :meth:`fork` of the frame with ``node_id``'s
        visit recorded — the packet the receiver may mutate, forward
        or deliver.  The frame itself stays as the sender put it on
        the air, so every other receiver still reads the same bytes,
        and a receiver that drops the frame never pays for a copy.
        """
        branch = self.fork()
        branch.record_visit(node_id)
        return branch
