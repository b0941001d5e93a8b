"""Selective-repeat + SACK reliable transport with AIMD congestion control.

The stop-and-wait (:class:`~repro.protocol.tcp.ReliableService`) and
go-back-N (:class:`~repro.protocol.tcp.WindowedReliableService`) transports
pay for loss with dead air: stop-and-wait stalls one round trip per
message, go-back-N re-sends the whole window on one hole.  This module is
the modern alternative:

* **selective repeat** — the receiver buffers out-of-order segments and
  delivers in order; only the holes are ever retransmitted;
* **SACK** — every acknowledgement carries the cumulative "next expected"
  sequence number *plus* the coalesced ranges received beyond it, so the
  sender knows exactly which segments survived a burst;
* **fast retransmit** — a segment that has been SACKed past
  ``DUP_THRESHOLD`` times is re-sent immediately (~1 RTT after the loss)
  instead of waiting out a timer;
* **AIMD congestion window** — slow start to ``ssthresh``, additive
  increase beyond it, multiplicative decrease on fast retransmit, collapse
  to ``CWND_FLOOR`` on a retransmission timeout;
* **adaptive RTO** — per-flow Jacobson/Karn RTT estimation
  (``srtt + 4 * rttvar``, exponential backoff while a flow stays dark).

A flow is one ``(destination station, destination port)`` stream.  All
state machines are documented with diagrams in ``docs/networking.md``; the
loss benchmarks live in ``benchmarks/bench_transport_loss.py``.

The port plumbing (ack port, ``bind``/``unbind``, ``loopback``, delivery)
is :class:`~repro.protocol.port.ReliablePort`.

**Dual channel.**  The ``dual`` transport is this service built with
``dual_channel=True``: ``send(..., channel="unreliable")`` then takes the
raw datagram lane (no sequencing, no acks, one fragment train and done;
``repro.dse.exchange`` repairs loss by retrying idempotent requests).
The receive path delivers any packet whose payload is not an
:class:`SRSegment` straight to the bound mailbox, so raw and reliable
traffic interleave on one port and receivers need no channel awareness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..errors import ProtocolError
from ..obs.spans import NET_TID, NULL_RECORDER
from ..sim.core import Event, Simulator
from .packet import Packet
from .port import ReliablePort
from .udp import DatagramService, Mailbox

__all__ = [
    "CHANNELS",
    "SRSegment",
    "SelectiveRepeatService",
    "SR_ACK_PORT_OFFSET",
    "coalesce_ranges",
]

#: acks for the selective-repeat service use their own well-known port
SR_ACK_PORT_OFFSET = 32770

#: the two lanes of the ``dual`` transport
CHANNELS = ("reliable", "unreliable")


def coalesce_ranges(seqs: List[int]) -> Tuple[Tuple[int, int], ...]:
    """Collapse sequence numbers into maximal ``(start, end)`` runs.

    Ranges are inclusive on both ends and sorted ascending — the SACK
    blocks the receiver advertises.  ``[5, 3, 4, 9, 7]`` becomes
    ``((3, 5), (7, 7), (9, 9))``.
    """
    if not seqs:
        return ()
    ordered = sorted(seqs)
    ranges = []
    start = prev = ordered[0]
    for seq in ordered[1:]:
        if seq == prev:  # duplicates collapse
            continue
        if seq == prev + 1:
            prev = seq
            continue
        ranges.append((start, prev))
        start = prev = seq
    ranges.append((start, prev))
    return tuple(ranges)


@dataclass
class SRSegment:
    """Wire envelope of the selective-repeat service.

    ``kind == "data"`` carries ``seq`` and the user payload.  ``kind ==
    "ack"`` carries the cumulative ack in ``seq`` (next expected sequence
    number), the data port it acknowledges in ``port``, and the coalesced
    SACK ranges received beyond the cumulative point in ``sack``.
    """

    kind: str  # "data" | "ack"
    seq: int
    user_payload: Any = None
    port: int = 0
    sack: Tuple[Tuple[int, int], ...] = ()


class _TxSeg:
    """Sender-side bookkeeping for one unacknowledged segment."""

    __slots__ = ("payload", "nbytes", "src_port", "trace", "sent_at",
                 "retransmitted", "sacked", "sacked_past")

    def __init__(self, payload: Any, nbytes: int, src_port: int, trace: Any,
                 sent_at: float):
        self.payload = payload
        self.nbytes = nbytes
        self.src_port = src_port
        self.trace = trace
        self.sent_at = sent_at  # last transmission time (RTT sampling)
        self.retransmitted = False  # Karn: no RTT sample once re-sent
        self.sacked = False  # receiver holds it; never retransmit
        self.sacked_past = 0  # times a higher segment was SACKed/acked


class _SRFlow:
    """Sender-side state of one (dst, port) selective-repeat flow."""

    __slots__ = ("base", "next_seq", "buffer", "timer_epoch", "window_event",
                 "cwnd", "ssthresh", "srtt", "rttvar", "rto", "backoff",
                 "recover", "stall_rounds", "high_sack", "n_sacked")

    def __init__(self, initial_rto: float, cwnd_init: float, ssthresh: float):
        self.base = 0  # oldest unacknowledged sequence number
        self.next_seq = 0  # next sequence number to assign
        self.buffer: Dict[int, _TxSeg] = {}
        self.timer_epoch = 0  # invalidates outstanding retransmit timers
        self.window_event: Optional[Event] = None  # set while window is full
        # -- congestion control (AIMD) --
        self.cwnd = cwnd_init  # congestion window, in segments
        self.ssthresh = ssthresh  # slow start / additive increase boundary
        # -- RTT estimation (Jacobson/Karn) --
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = initial_rto
        self.backoff = 1.0  # exponential timer backoff multiplier
        self.recover = 0  # fast-recovery episode boundary (seq)
        self.stall_rounds = 0  # consecutive timeouts without progress
        self.high_sack = -1  # highest sequence number ever SACKed
        self.n_sacked = 0  # outstanding segments held by the receiver

    @property
    def in_flight(self) -> int:
        return self.next_seq - self.base

    @property
    def pipe(self) -> int:
        """Segments actually unaccounted for on the wire: outstanding
        minus those the receiver already holds (SACKed) — the window
        gates on this, so SACK arrivals keep the ack clock running
        through a loss episode (limited-transmit effect)."""
        return self.in_flight - self.n_sacked

    def window(self, cap: int) -> int:
        """Effective send window: ``min(floor(cwnd), cap)``, at least 1."""
        return max(1, min(int(self.cwnd), cap))


class _RxFlow:
    """Receiver-side state of one (src, port) selective-repeat flow."""

    __slots__ = ("rcv_next", "buffer")

    def __init__(self) -> None:
        self.rcv_next = 0  # next sequence number to deliver in order
        self.buffer: Dict[int, Packet] = {}  # out-of-order hold


class SelectiveRepeatService(ReliablePort):
    """Reliable in-order delivery with selective repeat, SACK and AIMD.

    Usage mirrors the other reliable services: ``bind`` a port, ``send``
    to a station/port.  ``send`` completes when the segment has entered
    the congestion window and been transmitted once (pipelined); use
    :meth:`flush` to wait for full acknowledgement of a flow.  With
    ``dual_channel=True`` ``send`` also offers the raw unreliable lane.
    """

    NAME = "sr"
    ACK_PORT = SR_ACK_PORT_OFFSET
    #: extra accounted wire bytes per advertised SACK range (two seqnos)
    SACK_RANGE_BYTES = 8
    #: segments SACKed past an outstanding segment before fast retransmit
    DUP_THRESHOLD = 3

    def __init__(
        self,
        sim: Simulator,
        datagram: DatagramService,
        max_window: int = 32,
        cwnd_init: float = 2.0,
        cwnd_floor: float = 1.0,
        initial_rto: float = 0.010,
        min_rto: float = 0.003,
        max_rto: float = 0.200,
        max_sack_ranges: int = 3,
        max_stall_rounds: int = 30,
        dual_channel: bool = False,
    ):
        if max_window < 1:
            raise ProtocolError(f"max_window must be >= 1, got {max_window}")
        if cwnd_floor < 1.0:
            raise ProtocolError(f"cwnd_floor must be >= 1, got {cwnd_floor}")
        super().__init__(sim, datagram)
        #: ``dual`` transport: ``send`` takes ``channel="unreliable"`` too
        #: (the exchange layer reads this flag to classify messages)
        self.dual_channel = dual_channel
        self.max_window = max_window
        self.cwnd_init = cwnd_init
        self.cwnd_floor = cwnd_floor
        self.initial_rto = initial_rto
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.max_sack_ranges = max_sack_ranges
        self.max_stall_rounds = max_stall_rounds
        self._flows: Dict[Tuple[int, int], _SRFlow] = {}
        self._rx: Dict[Tuple[int, int], _RxFlow] = {}
        self.obs = getattr(sim, "obs", None) or NULL_RECORDER

    # -- receive path -------------------------------------------------------
    def _on_data(self, packet: Packet, outer: Mailbox) -> None:
        seg = packet.payload
        if not isinstance(seg, SRSegment):
            # Dual-channel raw datagram: no sequencing, deliver as-is.
            self.stats.counter("raw_delivered").increment()
            outer.deliver(packet)
            return
        key = (packet.src, packet.dst_port)
        flow = self._rx.setdefault(key, _RxFlow())
        if seg.seq < flow.rcv_next:
            # Duplicate of delivered data (our ack was lost): re-ack so the
            # sender stops retransmitting.
            self.stats.counter("duplicates_dropped").increment()
        elif seg.seq == flow.rcv_next:
            self._deliver_user(packet, seg.user_payload, outer)
            flow.rcv_next += 1
            # Drain any buffered run that became contiguous.
            while flow.rcv_next in flow.buffer:
                held = flow.buffer.pop(flow.rcv_next)
                self._deliver_user(held, held.payload.user_payload, outer)
                flow.rcv_next += 1
        elif seg.seq in flow.buffer:
            self.stats.counter("duplicates_dropped").increment()
        else:
            # Out of order: selective repeat buffers it instead of dropping.
            flow.buffer[seg.seq] = packet
            self.stats.counter("out_of_order_buffered").increment()
        self._sack(packet.src, packet.dst_port, flow)

    def _sack(self, dst: int, port: int, flow: _RxFlow) -> None:
        ranges = coalesce_ranges(list(flow.buffer))[: self.max_sack_ranges]
        ack = SRSegment(kind="ack", seq=flow.rcv_next, port=port, sack=ranges)
        self.stats.counter("sacks_sent").increment()
        if ranges:
            self.stats.tally("sack_ranges").observe(len(ranges))
        self._send_ack(dst, ack, self.ACK_BYTES + len(ranges) * self.SACK_RANGE_BYTES)

    # -- sender: ack processing --------------------------------------------
    def _on_ack(self, packet: Packet) -> None:
        seg: SRSegment = packet.payload
        key = (packet.src, seg.port)
        flow = self._flows.get(key)
        if flow is None:
            return
        now = self.sim.now
        progress = False
        # 1. Cumulative advance: everything below seg.seq is delivered.
        if seg.seq > flow.base:
            newly = 0
            sample_from: Optional[_TxSeg] = None
            for seqno in range(flow.base, seg.seq):
                txseg = flow.buffer.pop(seqno, None)
                if txseg is None:
                    continue
                if txseg.sacked:
                    flow.n_sacked -= 1
                else:
                    newly += 1
                if not txseg.retransmitted:
                    sample_from = txseg  # highest cleanly acked segment
            flow.base = seg.seq
            progress = True
            if sample_from is not None:
                self._rtt_sample(flow, now - sample_from.sent_at)
            self._grow_cwnd(flow, max(newly, 1))
        # 2. SACK ranges: mark survivors, never retransmit them.
        sacked_any = False
        high_sack = flow.base - 1
        for start, end in seg.sack:
            high_sack = max(high_sack, end)
            for seqno in range(max(start, flow.base), end + 1):
                txseg = flow.buffer.get(seqno)
                if txseg is not None and not txseg.sacked:
                    txseg.sacked = True
                    flow.n_sacked += 1
                    sacked_any = True
                    if not txseg.retransmitted:
                        self._rtt_sample(flow, now - txseg.sent_at)
        flow.high_sack = max(flow.high_sack, high_sack)
        # 3. Fast retransmit: a hole SACKed past DUP_THRESHOLD times.
        if high_sack >= flow.base:
            self._score_holes(key, flow, high_sack)
        # 4. Partial ack during a loss episode (base advanced but not out
        #    of the episode yet): the next hole is almost certainly part of
        #    the same burst — re-send it now instead of waiting out the dup
        #    threshold or a timer (NewReno partial-ack retransmission).
        if progress and flow.base < flow.recover:
            txseg = flow.buffer.get(flow.base)
            if txseg is not None and not txseg.sacked:
                self.stats.counter("partial_ack_retransmits").increment()
                self._retransmit(key, flow.base)
        if progress or sacked_any:
            flow.stall_rounds = 0
            flow.backoff = 1.0
            flow.timer_epoch += 1
            if flow.base < flow.next_seq:
                self._arm_timer(key, flow)
            self._wake_window(flow)

    def _score_holes(self, key: Tuple[int, int], flow: _SRFlow, high_sack: int) -> None:
        for seqno in range(flow.base, high_sack):
            txseg = flow.buffer.get(seqno)
            if txseg is None or txseg.sacked:
                continue
            txseg.sacked_past += 1
            if txseg.sacked_past >= self.DUP_THRESHOLD:
                txseg.sacked_past = -(1 << 30)  # once per timer epoch
                self.stats.counter("fast_retransmits").increment()
                if seqno >= flow.recover:
                    # One multiplicative decrease per loss episode.
                    flow.recover = flow.next_seq
                    flow.ssthresh = max(flow.cwnd / 2.0, 2.0)
                    flow.cwnd = max(flow.cwnd / 2.0, self.cwnd_floor)
                self._retransmit(key, seqno)

    def _rtt_sample(self, flow: _SRFlow, sample: float) -> None:
        if sample < 0:  # pragma: no cover - clocks only move forward
            return
        if flow.srtt is None:
            flow.srtt = sample
            flow.rttvar = sample / 2.0
        else:
            flow.rttvar = 0.75 * flow.rttvar + 0.25 * abs(flow.srtt - sample)
            flow.srtt = 0.875 * flow.srtt + 0.125 * sample
        flow.rto = min(max(flow.srtt + 4.0 * flow.rttvar, self.min_rto), self.max_rto)
        self.stats.tally("rtt").observe(sample)

    def _grow_cwnd(self, flow: _SRFlow, newly_acked: int) -> None:
        if flow.cwnd < flow.ssthresh:
            # Slow start: one segment per newly acked segment.
            flow.cwnd = min(flow.cwnd + newly_acked, float(self.max_window))
        else:
            # Congestion avoidance: additive increase, ~1 segment per RTT.
            flow.cwnd = min(
                flow.cwnd + newly_acked / flow.cwnd, float(self.max_window)
            )

    def _wake_window(self, flow: _SRFlow) -> None:
        if flow.window_event is not None and not flow.window_event.triggered:
            flow.window_event.succeed()
            flow.window_event = None

    # -- send path ----------------------------------------------------------
    def send(
        self,
        dst: int,
        dst_port: int,
        payload: Any,
        payload_bytes: int,
        src_port: int = 0,
        trace: Any = None,
        channel: str = "reliable",
    ) -> Generator[Event, Any, None]:
        """Send one message on ``channel``.

        ``reliable`` completes when the message has entered the window (it
        may still be in flight — use :meth:`flush` for a full drain).
        ``unreliable`` (``dual_channel`` only) completes when the fragments
        are handed to the NIC — fire and forget.
        """
        if channel != "reliable":
            if not (self.dual_channel and channel == "unreliable"):
                lanes = CHANNELS if self.dual_channel else CHANNELS[:1]
                raise ProtocolError(
                    f"unknown channel {channel!r}; expected one of {lanes}"
                )
            self.stats.counter("unreliable_sent").increment()
            yield from self.datagram.send(
                dst, dst_port, payload, payload_bytes, src_port, trace=trace
            )
            return
        self._ensure_ack_port()
        key = (dst, dst_port)
        flow = self._flows.get(key)
        if flow is None:
            flow = _SRFlow(self.initial_rto, self.cwnd_init, float(self.max_window))
            self._flows[key] = flow
        while flow.pipe >= flow.window(self.max_window):
            if flow.window_event is None or flow.window_event.triggered:
                flow.window_event = self.sim.event(name=f"sr-window:{dst}:{dst_port}")
            yield flow.window_event
        seq = flow.next_seq
        flow.next_seq += 1
        flow.buffer[seq] = _TxSeg(payload, payload_bytes, src_port, trace, self.sim.now)
        yield from self._transmit(key, seq, first=True)
        self.stats.counter("segments_sent").increment()
        if flow.base < flow.next_seq:
            self._arm_timer(key, flow)

    def flush(self, dst: int, dst_port: int) -> Generator[Event, Any, None]:
        """Wait until every sent segment on the flow is acknowledged."""
        key = (dst, dst_port)
        flow = self._flows.get(key)
        if flow is None:
            return
        while flow.base < flow.next_seq:
            if flow.window_event is None or flow.window_event.triggered:
                flow.window_event = self.sim.event(name=f"sr-flush:{dst}:{dst_port}")
            yield flow.window_event

    def _transmit(
        self, key: Tuple[int, int], seq: int, first: bool = False
    ) -> Generator[Event, Any, None]:
        dst, dst_port = key
        flow = self._flows[key]
        txseg = flow.buffer.get(seq)
        if txseg is None:
            return  # acked in the meantime
        if not first:
            txseg.retransmitted = True
            txseg.sent_at = self.sim.now
        seg = SRSegment(kind="data", seq=seq, user_payload=txseg.payload)
        yield from self.datagram.send(
            dst, dst_port, seg, txseg.nbytes, txseg.src_port, trace=txseg.trace
        )

    def _retransmit(self, key: Tuple[int, int], seq: int) -> None:
        flow = self._flows[key]
        txseg = flow.buffer.get(seq)
        if txseg is None or txseg.sacked:
            return
        self.stats.counter("retransmissions").increment()
        if self.obs.enabled and txseg.trace is not None:
            self.obs.instant(
                self.sim.now, "net.rexmit", "net", self.station, NET_TID, txseg.trace
            )
        self.sim.process(
            self._transmit(key, seq), name=f"sr-rexmit:{self.station}"
        )

    # -- retransmission timer ----------------------------------------------
    def _arm_timer(self, key: Tuple[int, int], flow: _SRFlow) -> None:
        # Several timers may share an epoch (one per send); only the first
        # to fire acts — it bumps the epoch, making the rest stale no-ops.
        epoch = flow.timer_epoch
        timer = self.sim.timeout(min(flow.rto * flow.backoff, self.max_rto))
        timer.callbacks.append(lambda _ev: self._on_timer(key, epoch))

    def _on_timer(self, key: Tuple[int, int], epoch: int) -> None:
        flow = self._flows.get(key)
        if flow is None or epoch != flow.timer_epoch:
            return
        if flow.base >= flow.next_seq:
            return  # everything acknowledged
        flow.stall_rounds += 1
        if flow.stall_rounds > self.max_stall_rounds:
            raise ProtocolError(
                f"selective-repeat flow {self.station}->{key} stalled after "
                f"{self.max_stall_rounds} retransmission timeouts"
            )
        flow.timer_epoch += 1
        self.stats.counter("timeouts").increment()
        # Timeout: collapse to the congestion window floor and back the
        # timer off exponentially (the link may be dark for a while).
        flow.ssthresh = max(flow.cwnd / 2.0, 2.0)
        if flow.cwnd > self.cwnd_floor:
            flow.cwnd = self.cwnd_floor
            self.stats.counter("cwnd_floor_hits").increment()
        flow.recover = flow.next_seq
        flow.backoff = min(flow.backoff * 1.5, 8.0)
        # First timeout: re-send what is *known* lost — every unsacked
        # segment below the SACK high-water mark (the receiver holds data
        # beyond them, and links deliver in order) plus the earliest hole.
        # A spurious RTO (delay, not loss) therefore costs one duplicate
        # frame.  If the flow stays dark for a second round, escalate and
        # re-send every unsacked outstanding segment: duplicates are
        # harmless — the receiver re-acks them — and on a bursty link every
        # frame on the wire is one more step of the loss chain toward GOOD.
        slam = flow.stall_rounds >= 2
        sent_one = False
        for seqno in range(flow.base, flow.next_seq):
            txseg = flow.buffer.get(seqno)
            if txseg is None or txseg.sacked:
                continue
            if slam or seqno <= flow.high_sack or not sent_one:
                txseg.sacked_past = 0
                self._retransmit(key, seqno)
                sent_one = True
            else:
                break
        self._arm_timer(key, flow)

    # -- introspection -------------------------------------------------------
    def flow_state(self, dst: int, dst_port: int) -> Dict[str, float]:
        """Sender-side state of one flow (for stats surfacing and tests)."""
        flow = self._flows.get((dst, dst_port))
        if flow is None:
            return {}
        return {
            "base": flow.base,
            "next_seq": flow.next_seq,
            "in_flight": flow.in_flight,
            "cwnd": flow.cwnd,
            "ssthresh": flow.ssthresh,
            "srtt": flow.srtt if flow.srtt is not None else 0.0,
            "rto": flow.rto,
        }
