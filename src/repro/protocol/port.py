"""The reliable-port layer shared by every reliable transport.

Stop-and-wait, go-back-N and selective repeat differ only in their state
machines.  :class:`ReliablePort` holds what they share on top of one
:class:`~repro.protocol.udp.DatagramService`:

* one well-known *ack port* per service kind, bound on first use;
* ``bind``/``unbind`` of user ports below :data:`USER_PORT_LIMIT`.  Each
  bound port pairs the datagram port (the inner mailbox, drained by a
  sink process) with the mailbox the user reads (the outer one);
* ``loopback``: local delivery, loss-free, so it skips the segment
  machinery;
* re-wrapping a received data segment as the user packet;
* the one-shot process that sends an ack.

A subclass sets ``NAME`` (the process-name prefix and StatSet name) and
``ACK_PORT``, and implements ``_on_data(packet, outer)`` for segments
arriving on a bound port and ``_on_ack(packet)`` for its ack port.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from ..errors import ProtocolError
from ..sim.core import Event, Simulator
from ..sim.monitor import StatSet
from .packet import Packet
from .udp import DatagramService, Mailbox

__all__ = ["ReliablePort", "USER_PORT_LIMIT"]

#: user ports stay below every reliable service's ack port
USER_PORT_LIMIT = 32768


class ReliablePort:
    """Port plumbing of a reliable service over a datagram service."""

    #: process-name prefix and StatSet name ("rel", "gbn", "sr")
    NAME: str
    #: datagram port this service's acks arrive on
    ACK_PORT: int
    ACK_BYTES = 4

    def __init__(self, sim: Simulator, datagram: DatagramService):
        self.sim = sim
        self.datagram = datagram
        self.station = datagram.station
        self._bound: Dict[int, Mailbox] = {}
        self._ack_mailbox: Optional[Mailbox] = None
        self.stats = StatSet(f"{self.NAME}:{self.station}")

    # -- ports --------------------------------------------------------------
    def _ensure_ack_port(self) -> None:
        if self._ack_mailbox is None:
            self._ack_mailbox = self.datagram.bind(self.ACK_PORT)
            self._ack_mailbox.on_arrival = self._on_ack

    def bind(self, port: int) -> Mailbox:
        """Bind a reliable port; returns the mailbox of *user* packets."""
        if port >= USER_PORT_LIMIT:
            raise ProtocolError(f"reliable ports must be < {USER_PORT_LIMIT}")
        if port in self._bound:
            raise ProtocolError(f"port {port} already bound on {self.stats.name}")
        self._ensure_ack_port()
        inner = self.datagram.bind(port)
        outer = Mailbox(self.sim, self.station, port)
        inner.on_arrival = lambda pkt: self._on_data(pkt, outer)
        # Drain the inner queue so packets do not accumulate twice.
        self.sim.process(self._sink(inner), name=f"{self.NAME}-sink:{self.station}:{port}")
        self._bound[port] = outer
        return outer

    def _sink(self, inner: Mailbox) -> Generator[Event, Any, None]:
        while True:
            yield inner.get()

    def unbind(self, port: int) -> None:
        if port not in self._bound:
            raise ProtocolError(f"port {port} is not bound on {self.stats.name}")
        del self._bound[port]
        self.datagram.unbind(port)

    def loopback(
        self,
        dst_port: int,
        payload: Any,
        payload_bytes: int,
        src_port: int = 0,
        trace: Any = None,
    ) -> Packet:
        """Local delivery to a bound port (inherently loss-free, so the
        ack and window machinery is bypassed)."""
        outer = self._bound.get(dst_port)
        if outer is None:
            raise ProtocolError(f"port {dst_port} is not bound on {self.stats.name}")
        packet = Packet(
            src=self.station,
            dst=self.station,
            src_port=src_port,
            dst_port=dst_port,
            payload=payload,
            payload_bytes=payload_bytes,
            trace=trace,
        )
        self.stats.counter("loopback_packets").increment()
        outer.deliver(packet)
        return packet

    # -- segment plumbing ---------------------------------------------------
    def _deliver_user(self, packet: Packet, user_payload: Any, outer: Mailbox) -> None:
        """Re-wrap a received data segment as the user packet and deliver it."""
        user_packet = Packet(
            src=packet.src,
            dst=packet.dst,
            src_port=packet.src_port,
            dst_port=packet.dst_port,
            payload=user_payload,
            payload_bytes=packet.payload_bytes,
            trace=packet.trace,
        )
        self.stats.counter("delivered").increment()
        outer.deliver(user_packet)

    def _send_ack(self, dst: int, ack: Any, nbytes: int = ACK_BYTES) -> None:
        """Send ``ack`` to ``dst``'s ack port from a one-shot process.

        Acks carry no trace: they are bookkeeping, not part of any one
        message's causal path.
        """
        self.sim.process(
            self.datagram.send(dst, self.ACK_PORT, ack, nbytes),
            name=f"{self.NAME}-ack:{self.station}",
        )

    def _on_data(self, packet: Packet, outer: Mailbox) -> None:
        raise NotImplementedError

    def _on_ack(self, packet: Packet) -> None:
        raise NotImplementedError
