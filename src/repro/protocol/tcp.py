"""Reliable (TCP-flavoured) transports built on the datagram service.

The original DSE optimised TCP/IP processing and paid for it with protocol
dependency; the re-organised DSE abstracts the transport.  This module
provides the reliable options:

* :class:`ReliableService` — per-destination **stop-and-wait** with
  acknowledgements, retransmission on timeout, and duplicate suppression;
* :class:`WindowedReliableService` — **go-back-N** sliding window with
  cumulative acknowledgements, for streams of back-to-back messages.

Both keep only their state machines; the port plumbing (ack port,
``bind``/``unbind``, ``loopback``, delivery) is
:class:`~repro.protocol.port.ReliablePort`.

On the simulated fabrics loss only happens when frames are dropped by a
fault injector (:mod:`repro.network.faults`) or exceed the 802.3 collision
limit, so retransmissions are rare — but the machinery is real and the
failure-injection tests exercise it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional, Tuple

from ..errors import ProtocolError
from ..sim.core import Event, Simulator
from .packet import Packet
from .port import ReliablePort
from .udp import DatagramService, Mailbox

__all__ = [
    "ReliableService",
    "WindowedReliableService",
    "RELIABLE_ACK_PORT_OFFSET",
    "GBN_ACK_PORT_OFFSET",
]

#: acks for the stop-and-wait service use this well-known port
RELIABLE_ACK_PORT_OFFSET = 32768


@dataclass
class _Seg:
    """Reliable segment envelope carried inside a datagram payload."""

    kind: str  # "data" | "ack"
    seq: int
    user_payload: Any = None


class ReliableService(ReliablePort):
    """Reliable in-order delivery over :class:`DatagramService`.

    Usage mirrors the datagram service: ``bind`` a port, ``send`` to a
    station/port.  ``send`` completes when the segment is acknowledged.
    """

    NAME = "rel"
    ACK_PORT = RELIABLE_ACK_PORT_OFFSET

    def __init__(
        self,
        sim: Simulator,
        datagram: DatagramService,
        retransmit_timeout: float = 0.050,
        max_retries: int = 8,
    ):
        super().__init__(sim, datagram)
        self.retransmit_timeout = retransmit_timeout
        self.max_retries = max_retries
        self._send_seq: Dict[Tuple[int, int], int] = {}
        self._recv_seq: Dict[Tuple[int, int], int] = {}
        self._ack_events: Dict[Tuple[int, int, int], Event] = {}

    # -- receive path ---------------------------------------------------------
    def _on_data(self, packet: Packet, outer: Mailbox) -> None:
        seg: _Seg = packet.payload
        key = (packet.src, packet.dst_port)
        expected = self._recv_seq.get(key, 0)
        if seg.seq != expected:
            if seg.seq < expected:
                # Duplicate of already-delivered data (our ack was lost):
                # re-ack so the sender stops retransmitting.
                self._send_ack(packet.src, _Seg("ack", seg.seq, packet.dst_port))
                self.stats.counter("duplicates_dropped").increment()
            else:
                # A segment from the future: an earlier one on this port is
                # still missing.  Acking it would confirm data we discard
                # right here — the sender would stop retransmitting and the
                # payload would be lost for good (a lost wakeup when the
                # payload is a lock grant or barrier release).  Stay silent
                # and let the sender's timer re-send it after the gap fills.
                self.stats.counter("out_of_order_dropped").increment()
            return
        self._recv_seq[key] = expected + 1
        self._send_ack(packet.src, _Seg("ack", seg.seq, packet.dst_port))
        self._deliver_user(packet, seg.user_payload, outer)

    def _on_ack(self, packet: Packet) -> None:
        seg: _Seg = packet.payload
        port = seg.user_payload
        key = (packet.src, port, seg.seq)
        event = self._ack_events.pop(key, None)
        if event is not None and not event.triggered:
            event.succeed()

    # -- send path ------------------------------------------------------------
    def send(
        self,
        dst: int,
        dst_port: int,
        payload: Any,
        payload_bytes: int,
        src_port: int = 0,
        trace: Any = None,
    ) -> Generator[Event, Any, None]:
        """Send reliably; completes when the receiver has acknowledged."""
        self._ensure_ack_port()
        key = (dst, dst_port)
        seq = self._send_seq.get(key, 0)
        self._send_seq[key] = seq + 1
        seg = _Seg(kind="data", seq=seq, user_payload=payload)
        attempt = 0
        while True:
            ack_event = self.sim.event(name=f"ack:{dst}:{dst_port}:{seq}")
            self._ack_events[(dst, dst_port, seq)] = ack_event
            yield from self.datagram.send(
                dst, dst_port, seg, payload_bytes, src_port, trace=trace
            )
            self.stats.counter("segments_sent").increment()
            timer = self.sim.timeout(self.retransmit_timeout)
            outcome = yield self.sim.any_of([ack_event, timer])
            if ack_event in outcome:
                return
            self._ack_events.pop((dst, dst_port, seq), None)
            attempt += 1
            self.stats.counter("retransmissions").increment()
            if attempt > self.max_retries:
                raise ProtocolError(
                    f"reliable send {self.station}->{dst}:{dst_port} seq={seq} "
                    f"failed after {self.max_retries} retries"
                )


# --------------------------------------------------------------------------
# Go-back-N sliding window
# --------------------------------------------------------------------------

#: acks for the windowed service use a separate well-known port
GBN_ACK_PORT_OFFSET = 32769


class _GBNStream:
    """Sender-side state of one (dst, port) go-back-N stream."""

    __slots__ = ("base", "next_seq", "buffer", "timer_epoch", "window_event")

    def __init__(self) -> None:
        self.base = 0  # oldest unacknowledged sequence number
        self.next_seq = 0  # next sequence number to assign
        #: seq -> (payload, nbytes, src_port, trace) — trace rides along so
        #: go-back-N retransmissions stay on the original causal tree
        self.buffer: Dict[int, Tuple[Any, int, int, Any]] = {}
        self.timer_epoch = 0  # invalidates outstanding retransmit timers
        self.window_event: Optional[Event] = None  # set while window is full

    @property
    def in_flight(self) -> int:
        return self.next_seq - self.base


class WindowedReliableService(ReliablePort):
    """Reliable in-order delivery with a go-back-N sliding window.

    Where :class:`ReliableService` stalls one round trip per message,
    this service keeps up to ``window`` segments in flight per
    destination stream and acknowledges cumulatively — the standard
    pipelining win for message bursts, at the cost of full-window
    retransmission on loss.
    """

    NAME = "gbn"
    ACK_PORT = GBN_ACK_PORT_OFFSET

    def __init__(
        self,
        sim: Simulator,
        datagram: DatagramService,
        window: int = 8,
        retransmit_timeout: float = 0.050,
        max_retries: int = 16,
    ):
        if window < 1:
            raise ProtocolError(f"window must be >= 1, got {window}")
        super().__init__(sim, datagram)
        self.window = window
        self.retransmit_timeout = retransmit_timeout
        self.max_retries = max_retries
        self._streams: Dict[Tuple[int, int], _GBNStream] = {}
        self._recv_expected: Dict[Tuple[int, int], int] = {}
        self._retries: Dict[Tuple[int, int], int] = {}

    # -- receive path ---------------------------------------------------------
    def _on_data(self, packet: Packet, outer: Mailbox) -> None:
        seg: _Seg = packet.payload
        key = (packet.src, packet.dst_port)
        expected = self._recv_expected.get(key, 0)
        if seg.seq == expected:
            self._recv_expected[key] = expected + 1
            expected += 1
            self._deliver_user(packet, seg.user_payload, outer)
        else:
            self.stats.counter("out_of_order_dropped").increment()
        # Cumulative ack: "next expected" (re-acks repair lost acks).
        self._send_ack(packet.src, _Seg("ack", expected, packet.dst_port))

    def _on_ack(self, packet: Packet) -> None:
        seg: _Seg = packet.payload
        key = (packet.src, seg.user_payload)
        stream = self._streams.get(key)
        if stream is None:
            return
        if seg.seq > stream.base:
            for seqno in range(stream.base, seg.seq):
                stream.buffer.pop(seqno, None)
            stream.base = seg.seq
            self._retries[key] = 0
            stream.timer_epoch += 1
            if stream.base < stream.next_seq:
                self._arm_timer(key, stream)
            if stream.window_event is not None and not stream.window_event.triggered:
                stream.window_event.succeed()
                stream.window_event = None

    # -- send path ------------------------------------------------------------
    def send(
        self,
        dst: int,
        dst_port: int,
        payload: Any,
        payload_bytes: int,
        src_port: int = 0,
        trace: Any = None,
    ) -> Generator[Event, Any, None]:
        """Send one message; completes when it has entered the window (it
        may still be in flight — use :meth:`flush` for a full drain)."""
        self._ensure_ack_port()
        key = (dst, dst_port)
        stream = self._streams.setdefault(key, _GBNStream())
        while stream.in_flight >= self.window:
            if stream.window_event is None or stream.window_event.triggered:
                stream.window_event = self.sim.event(name=f"gbn-window:{dst}:{dst_port}")
            yield stream.window_event
        seq = stream.next_seq
        stream.next_seq += 1
        stream.buffer[seq] = (payload, payload_bytes, src_port, trace)
        yield from self._transmit(key, seq)
        self.stats.counter("segments_sent").increment()
        if stream.base < stream.next_seq:
            self._arm_timer(key, stream)

    def flush(self, dst: int, dst_port: int) -> Generator[Event, Any, None]:
        """Wait until every sent segment on the stream is acknowledged."""
        key = (dst, dst_port)
        stream = self._streams.get(key)
        if stream is None:
            return
        while stream.base < stream.next_seq:
            if stream.window_event is None or stream.window_event.triggered:
                stream.window_event = self.sim.event(name=f"gbn-flush:{dst}:{dst_port}")
            yield stream.window_event

    def _transmit(self, key: Tuple[int, int], seq: int) -> Generator[Event, Any, None]:
        dst, dst_port = key
        stream = self._streams[key]
        entry = stream.buffer.get(seq)
        if entry is None:
            return  # acked in the meantime
        payload, nbytes, src_port, trace = entry
        yield from self.datagram.send(
            dst, dst_port, _Seg(kind="data", seq=seq, user_payload=payload),
            nbytes, src_port, trace=trace,
        )

    def _arm_timer(self, key: Tuple[int, int], stream: _GBNStream) -> None:
        # Several timers may share an epoch (one per send); only the first
        # to fire acts — it bumps the epoch, making the rest stale no-ops.
        epoch = stream.timer_epoch
        timer = self.sim.timeout(self.retransmit_timeout)
        timer.callbacks.append(lambda _ev: self._on_timer(key, epoch))

    def _on_timer(self, key: Tuple[int, int], epoch: int) -> None:
        stream = self._streams.get(key)
        if stream is None or epoch != stream.timer_epoch:
            return
        if stream.base >= stream.next_seq:
            return  # everything acknowledged
        retries = self._retries.get(key, 0) + 1
        self._retries[key] = retries
        if retries > self.max_retries:
            raise ProtocolError(
                f"go-back-N stream {self.station}->{key} stalled after "
                f"{self.max_retries} retransmission rounds"
            )
        stream.timer_epoch += 1
        self.stats.counter("gobackn_rounds").increment()

        def retransmit_all() -> Generator[Event, Any, None]:
            for seqno in range(stream.base, stream.next_seq):
                self.stats.counter("retransmissions").increment()
                yield from self._transmit(key, seqno)

        self.sim.process(retransmit_all(), name=f"gbn-rexmit:{self.station}")
        self._arm_timer(key, stream)
