"""Model-checking harness for the transport services.

Wraps the *real* :mod:`repro.protocol` services -- stop-and-wait
(:class:`~repro.protocol.tcp.ReliableService`), go-back-N
(:class:`~repro.protocol.tcp.WindowedReliableService`) and selective
repeat (:class:`~repro.protocol.sr.SelectiveRepeatService`, which also
serves the ``dual`` scope with its raw lane on) -- around a
:class:`ModelNIC` that, instead of simulating a link, parks every
transmitted frame in a *choice pool*.  The scheduler then decides, frame
by frame, whether to deliver, drop, or duplicate it, and when to let the
next retransmit timer fire ("tick"), which makes every loss/reorder/
duplication schedule explicit and enumerable.

Frame identity is *content-based*: ``frame_id``/``packet_id`` counters
differ between the scheduler's stateless re-executions, so actions name
frames by (src, dst, port, kind, seq, payload) instead.  Identical
frames collapse to one pool entry with a multiplicity -- a symmetry
reduction that is sound because the receive path only reads frame
content (small payloads take the single-fragment fast path, bypassing
``packet_id``-keyed reassembly).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..errors import ProtocolError
from ..protocol.sr import SelectiveRepeatService, SRSegment, coalesce_ranges
from ..protocol.tcp import ReliableService, WindowedReliableService, _Seg
from ..protocol.udp import DatagramService
from ..sim.core import Simulator

#: user payloads are tiny strings; one ethernet fragment, always
_PAYLOAD_BYTES = 64
#: the single application port used by every transport scope
PORT = 7


class ModelNIC:
    """A NIC whose wire is the checker's choice pool.

    ``enqueue`` succeeds immediately (the sender's yield resumes in the
    same instant) and parks the frame with the harness; nothing moves
    until the scheduler picks a ``deliver`` action.
    """

    def __init__(self, harness: "TransportHarness", station_id: int):
        self.harness = harness
        self.station_id = station_id
        self._rx = None

    def on_receive(self, callback) -> None:
        self._rx = callback

    def enqueue(self, frame):
        self.harness._pool_add(frame)
        done = self.harness.sim.event(name="model-nic-tx")
        done.succeed()
        return done


def _frame_desc(frame) -> Tuple[str, int]:
    """Canonical (description, dst_station) for a pooled ethernet frame."""
    packet = frame.payload.packet
    payload = packet.payload
    if isinstance(payload, _Seg):
        body = f"{payload.kind} seq={payload.seq} u={payload.user_payload!r}"
    elif isinstance(payload, SRSegment):
        body = (
            f"sr-{payload.kind} seq={payload.seq} port={payload.port} "
            f"u={payload.user_payload!r} sack={payload.sack!r}"
        )
    else:
        body = f"raw u={payload!r}"
    desc = f"{packet.src}>{packet.dst}:{packet.dst_port} {body}"
    return desc, frame.dst


class TransportHarness:
    """One bounded transport scenario under checker control.

    ``kind`` selects the service stack (``reliable``, ``reliable-gbn``,
    ``sr``, ``dual``); ``service_cls`` swaps in a mutant class for the
    stop-and-wait stack (see :mod:`repro.check.mutants`).  Station 0
    sends ``messages`` payloads to station 1; stop-and-wait sends them
    from *concurrent* ``send`` processes (the DSE exchange pipelines
    requests the same way), windowed transports stream them through one
    process and ``flush``.
    """

    benign_exceptions = (ProtocolError,)

    def __init__(
        self,
        kind: str = "reliable",
        *,
        messages: int = 2,
        window: int = 2,
        loss_budget: int = 1,
        dup_budget: int = 0,
        tick_budget: int = 3,
        service_cls: Optional[type] = None,
    ):
        self.kind = kind
        self.sim = Simulator()
        self.loss_left = loss_budget
        self.dup_left = dup_budget
        self._dup_budget = dup_budget
        self.ticks_left = tick_budget
        #: pool entries [desc, dst_station, frame]; duplicates collapse
        self.pool: List[list] = []
        self.delivered: List[Any] = []
        self.dropped: List[str] = []
        self._new_acks: List[Any] = []
        self.expected = [f"m{i}" for i in range(messages)]
        self.raw_payload = "u0" if kind == "dual" else None

        self.nics = [ModelNIC(self, 0), ModelNIC(self, 1)]
        self.datagrams = [
            DatagramService(self.sim, nic) for nic in self.nics
        ]
        if kind == "reliable":
            cls = service_cls or ReliableService
            self.services = [cls(self.sim, dg) for dg in self.datagrams]
        elif kind == "reliable-gbn":
            self.services = [
                WindowedReliableService(self.sim, dg, window=window)
                for dg in self.datagrams
            ]
        elif kind in ("sr", "dual"):
            self.services = [
                SelectiveRepeatService(
                    self.sim, dg, max_window=window, dual_channel=kind == "dual"
                )
                for dg in self.datagrams
            ]
        else:
            raise ValueError(f"unknown transport harness kind {kind!r}")

        mailbox = self.services[1].bind(PORT)
        mailbox.on_arrival = lambda pkt: self.delivered.append(pkt.payload)

        sender = self.services[0]
        self.workers = []
        if kind == "reliable":
            for payload in self.expected:
                self.workers.append(
                    self.sim.process(
                        self._send_one(sender, payload), name=f"send:{payload}"
                    )
                )
        else:
            self.workers.append(
                self.sim.process(self._send_stream(sender), name="send-stream")
            )
        self._drain()
        self._new_acks.clear()

    # -- worker bodies --------------------------------------------------
    def _send_one(self, service, payload):
        yield from service.send(1, PORT, payload, _PAYLOAD_BYTES)

    def _send_stream(self, service):
        for payload in self.expected:
            yield from service.send(1, PORT, payload, _PAYLOAD_BYTES)
        if self.raw_payload is not None:
            yield from service.send(
                1, PORT, self.raw_payload, _PAYLOAD_BYTES, channel="unreliable"
            )
        yield from service.flush(1, PORT)

    # -- pool plumbing ---------------------------------------------------
    def _pool_add(self, frame) -> None:
        desc, dst = _frame_desc(frame)
        self.pool.append([desc, dst, frame])
        payload = frame.payload.packet.payload
        if isinstance(payload, SRSegment) and payload.kind == "ack":
            self._new_acks.append(frame.payload.packet)

    def _pool_take(self, desc: str) -> list:
        for i, entry in enumerate(self.pool):
            if entry[0] == desc:
                return self.pool.pop(i)
        raise KeyError(f"no pooled frame {desc!r}")

    def _drain(self) -> None:
        sim = self.sim
        while sim.peek() <= sim.now:
            sim.step()

    def _live_timers(self) -> List[tuple]:
        return sorted(
            (entry[0] - self.sim.now, entry[1], type(entry[3]).__name__)
            for entry in self.sim._queue
            if entry[3] is not None
        )

    def _observable(self) -> tuple:
        """Protocol-visible state, used to skip no-op stale timers."""
        return (
            tuple(sorted(entry[0] for entry in self.pool)),
            tuple(self.delivered),
            tuple(worker.triggered for worker in self.workers),
            tuple(_service_state(self.kind, s) for s in self.services),
        )

    # -- scheduler interface ---------------------------------------------
    def enabled(self) -> List[Tuple[str, ...]]:
        if not self.pool and not self.goal_errors():
            # Goal reached with nothing in flight: any remaining timers are
            # stale no-ops, so the path is complete.
            return []
        actions: List[Tuple[str, ...]] = []
        for desc in sorted({entry[0] for entry in self.pool}):
            actions.append(("deliver", desc))
            if self.loss_left > 0:
                actions.append(("drop", desc))
            if self.dup_left > 0:
                actions.append(("dup", desc))
        if self.ticks_left > 0 and self._live_timers():
            actions.append(("tick",))
        return actions

    def apply(self, action: Tuple[str, ...]) -> None:
        self._new_acks.clear()
        op = action[0]
        if op == "deliver":
            desc, dst, frame = self._pool_take(action[1])
            self.nics[dst]._rx(frame)
        elif op == "drop":
            desc, _dst, _frame = self._pool_take(action[1])
            self.loss_left -= 1
            self.dropped.append(desc)
        elif op == "dup":
            entry = next(e for e in self.pool if e[0] == action[1])
            self.dup_left -= 1
            self.pool.append(list(entry))
        elif op == "tick":
            self.ticks_left -= 1
            # Advance time until a timer does something protocol-visible.
            # Stale timers (epoch-bumped, already-acked) fire as no-ops and
            # would otherwise burn the tick budget one pop at a time.
            before = self._observable()
            while self._live_timers():
                self.sim.step()
                self._drain()
                if self._observable() != before:
                    break
            return
        else:
            raise ValueError(f"unknown action {action!r}")
        self._drain()

    def is_truncated(self) -> bool:
        return bool(
            not self.pool
            and self.ticks_left <= 0
            and self._live_timers()
            and self.goal_errors()
        )

    def independent(self, a: Tuple[str, ...], b: Tuple[str, ...]) -> bool:
        if a[0] == "tick" or b[0] == "tick":
            return False  # timers race with everything
        if a[1] == b[1]:
            return False  # same frame content
        if a[0] == "deliver" and b[0] == "deliver":
            # Deliveries to different stations touch disjoint state.
            da = self._desc_dst(a[1])
            db = self._desc_dst(b[1])
            return da is not None and db is not None and da != db
        if a[0] == "deliver" or b[0] == "deliver":
            return True  # a delivery vs. a drop/dup of a different frame
        # Two drops (or two dups) share a budget, so one can disable the
        # other; a drop and a dup of different frames commute freely.
        return a[0] != b[0]

    def _desc_dst(self, desc: str) -> Optional[int]:
        for entry in self.pool:
            if entry[0] == desc:
                return entry[1]
        return None

    # -- verdicts ---------------------------------------------------------
    def _delivered_reliable(self) -> List[Any]:
        if self.raw_payload is None:
            return self.delivered
        return [p for p in self.delivered if p != self.raw_payload]

    def invariant_errors(self) -> List[str]:
        errors: List[str] = []
        reliable = self._delivered_reliable()
        if reliable != self.expected[: len(reliable)]:
            errors.append(
                f"delivered {reliable!r} is not a prefix of {self.expected!r} "
                "(duplicate or reordered delivery)"
            )
        if self.raw_payload is not None:
            raws = len(self.delivered) - len(reliable)
            if raws > 1 + self._dup_budget:
                errors.append(f"raw payload delivered {raws} times")
        for station, service in enumerate(self.services):
            errors.extend(
                f"station {station}: {msg}"
                for msg in _service_invariants(self.kind, service)
            )
        errors.extend(self._sack_invariants())
        return errors

    def _sack_invariants(self) -> List[str]:
        """Freshly generated SR acks must mirror the receiver's buffer."""
        errors = []
        for packet in self._new_acks:
            seg: SRSegment = packet.payload
            service = self.services[packet.src]
            rx = service._rx.get((packet.dst, seg.port))
            if rx is None:
                errors.append(f"ack for unknown rx flow {seg.port}")
                continue
            if seg.seq != rx.rcv_next:
                errors.append(
                    f"ack cumulative seq {seg.seq} != rcv_next {rx.rcv_next}"
                )
            want = tuple(
                coalesce_ranges(sorted(rx.buffer))[: service.max_sack_ranges]
            )
            if tuple(seg.sack or ()) != want:
                errors.append(
                    f"sack {seg.sack!r} inconsistent with rx buffer ({want!r})"
                )
        return errors

    def goal_errors(self) -> List[str]:
        errors = []
        for worker in self.workers:
            if not worker.triggered:
                errors.append(f"worker {worker.name!r} never completed")
        reliable = self._delivered_reliable()
        if reliable != self.expected:
            errors.append(
                f"terminal delivery {reliable!r} != goal {self.expected!r} "
                "(lost wakeup: sender confirmed, receiver never got it)"
            )
        if self.raw_payload is not None:
            raw_dropped = any("raw" in d for d in self.dropped)
            raws = len(self.delivered) - len(reliable)
            if not raw_dropped and raws == 0:
                errors.append("raw payload neither dropped nor delivered")
        return errors

    def fingerprint(self) -> tuple:
        pool = tuple(sorted(entry[0] for entry in self.pool))
        services = tuple(
            _service_state(self.kind, service) for service in self.services
        )
        return (
            pool,
            self.loss_left,
            self.dup_left,
            self.ticks_left,
            tuple(self.delivered),
            tuple(self.dropped),
            services,
            tuple(self._live_timers()),
            tuple(worker.triggered for worker in self.workers),
        )


def _stats_state(service) -> tuple:
    return tuple(sorted(service.stats.snapshot().items()))


def _service_state(kind: str, service) -> tuple:
    """Exact canonical state of one service endpoint."""
    if kind == "reliable":
        return (
            tuple(sorted(service._send_seq.items())),
            tuple(sorted(service._recv_seq.items())),
            tuple(sorted(service._ack_events)),
            _stats_state(service),
        )
    if kind == "reliable-gbn":
        streams = tuple(
            (key, s.base, s.next_seq, tuple(sorted(s.buffer)), s.timer_epoch,
             s.window_event is not None)
            for key, s in sorted(service._streams.items())
        )
        return (
            streams,
            tuple(sorted(service._recv_expected.items())),
            tuple(sorted(service._retries.items())),
            _stats_state(service),
        )
    flows = tuple(
        (
            key,
            f.base,
            f.next_seq,
            tuple(
                (seq, t.sacked, t.sacked_past, t.retransmitted)
                for seq, t in sorted(f.buffer.items())
            ),
            f.timer_epoch,
            f.window_event is not None,
            f.cwnd,
            f.ssthresh,
            f.srtt,
            f.rttvar,
            f.rto,
            f.backoff,
            f.recover,
            f.stall_rounds,
            f.high_sack,
            f.n_sacked,
        )
        for key, f in sorted(service._flows.items())
    )
    rx = tuple(
        (key, r.rcv_next, tuple(sorted(r.buffer)))
        for key, r in sorted(service._rx.items())
    )
    return (flows, rx, _stats_state(service))


def _service_invariants(kind: str, service) -> List[str]:
    """Structural safety invariants over one service endpoint."""
    errors: List[str] = []
    if kind == "reliable":
        for (dst, port, seq) in service._ack_events:
            sent = service._send_seq.get((dst, port), 0)
            if not 0 <= seq < sent:
                errors.append(f"ack wait for unallocated seq {seq} (sent {sent})")
        return errors
    if kind == "reliable-gbn":
        for key, stream in service._streams.items():
            if stream.base > stream.next_seq:
                errors.append(f"gbn {key}: base {stream.base} > next {stream.next_seq}")
            bad = [s for s in stream.buffer if not stream.base <= s < stream.next_seq]
            if bad:
                errors.append(f"gbn {key}: buffered seqs {bad} outside window")
        return errors
    for key, flow in service._flows.items():
        if flow.base > flow.next_seq:
            errors.append(f"sr {key}: base {flow.base} > next {flow.next_seq}")
        bad = [s for s in flow.buffer if not flow.base <= s < flow.next_seq]
        if bad:
            errors.append(f"sr {key}: buffered seqs {bad} outside window")
        n_sacked = sum(1 for t in flow.buffer.values() if t.sacked)
        if flow.n_sacked != n_sacked:
            errors.append(
                f"sr {key}: n_sacked {flow.n_sacked} != actual {n_sacked}"
            )
        if flow.cwnd < service.cwnd_floor - 1e-9:
            errors.append(f"sr {key}: cwnd {flow.cwnd} below floor {service.cwnd_floor}")
        if flow.cwnd > service.max_window + 1e-9:
            errors.append(f"sr {key}: cwnd {flow.cwnd} above max {service.max_window}")
    for key, rx in service._rx.items():
        bad = [s for s in rx.buffer if s <= rx.rcv_next]
        if bad:
            errors.append(
                f"sr rx {key}: buffered seqs {bad} not beyond rcv_next {rx.rcv_next}"
            )
    return errors
