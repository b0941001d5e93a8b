"""The shard-boundary switched fabric.

:class:`ShardSwitchCard` is one shard's slice of a
:class:`~repro.network.switch.SwitchedLAN`: uplink port state lives with
the *sending* station's shard, downlink port state with the *receiving*
station's shard, and the two sides meet through explicit handoff records
instead of a shared heap.  The timing model is the switch's own
(:class:`~repro.network.switch.SwitchPorts`: per-port free-time floats,
optional cut-through), so a sharded run is the same simulation cut along
port boundaries.

Three design points carry the whole correctness argument (see
``docs/sharding.md`` for the derivations):

**Lookahead.**  A handoff is emitted at transmission *start*, when every
timing quantity (uplink-done, switch-ready) is already determined, but its
*effect* (touching the destination's downlink port) happens at uplink-done.
The gap between emission and effect is therefore at least one minimum-frame
serialisation time — that constant is the fabric's lookahead, and it is what
lets shard event loops run a whole window ahead without ever receiving a
frame "from the past".

**Canonical downlink ordering.**  Two frames finishing their uplinks at the
same instant contend for a downlink port in whatever order a single shared
heap happens to dispatch them — an order that depends on global arm
sequence, which a partitioned run cannot reproduce.  The card therefore
buffers every downlink *touch* per ``(target, time)`` and applies the batch
in ``(src_station, src_seq)`` order when the clock reaches that time.  The
order is computable identically at *every* shard count (a station's sends
are sequenced by its own card, and relative order per station is preserved
no matter how stations are grouped), which is what makes ``--shards N``
byte-identical for all N.  One flush event exists per ``(target, time)``
pair regardless of sharding, so even ``events_processed`` is N-invariant.

**Window-boundary arming.**  Determinism across shard counts is stronger
than canonical values: each simulator's *tie-break sequence stream* must be
N-invariant, because same-timestamp events are ordered by arm sequence.  So
a touch record is never armed mid-window by whoever happened to create it. A
record for a station on the card's own shard waits in the card's inbox; a
cross-shard record goes to the outbox, and the engine routes outboxes to
their destination inboxes at the window boundary. :meth:`admit_pending` then
arms every inbox record, local and routed alike, in one canonical sorted
order, so the arm order does not depend on which records had to cross a
shard boundary. The lookahead guarantee makes the deferral safe: an effect
time always lies at or beyond the horizon of its emission window, so no
record can be needed before the next boundary. Each flush is armed at the
record's absolute effect time
(:meth:`~repro.sim.core.Simulator.timeout_at`), never relative to the arming
card's clock, so the engine can compute the next window start from the
records alone, before they are admitted.

**No shared mutable state.**  A handoff record is a plain picklable tuple
``(effect_time, src_station, src_seq, ready, target, frame)``; the engine
moves cross-shard records between cards' outboxes and inboxes in
deterministic shard order, and the process backend ships the identical
tuples over pipes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Tuple

from ..errors import NetworkError
from ..network.frame import (
    BROADCAST,
    ETH_HEADER_BYTES,
    ETH_MIN_PAYLOAD,
    ETH_PREAMBLE_BYTES,
    EthernetFrame,
)
from ..network.nic import NIC
from ..network.switch import PROP_DELAY, SwitchPorts
from ..network.topology import FabricConfig
from ..sim.core import Event, Simulator
from ..util.units import bits
from .plan import ShardPlan

__all__ = ["Handoff", "ShardSwitchCard", "ShardNetwork", "build_shard_network"]

#: a cross-port touch record: (effect_time, src_station, src_seq, ready,
#: target, frame) — effect_time is the sender's uplink-done instant, ready
#: is when the switch may start driving the output port
Handoff = Tuple[float, int, int, float, int, EthernetFrame]


def min_frame_time(rate_bps: float) -> float:
    """Serialisation time of a minimum Ethernet frame — the lookahead bound.

    Every uplink transmission lasts at least this long, and a handoff's
    effect trails its emission by exactly one transmission time, so no
    cross-shard effect can land closer than this to its cause.
    """
    return bits(ETH_MIN_PAYLOAD + ETH_HEADER_BYTES + ETH_PREAMBLE_BYTES) / rate_bps


class ShardSwitchCard(SwitchPorts):
    """One shard's ports of the switched LAN (attach/send-compatible)."""

    def __init__(
        self,
        sim: Simulator,
        shard: int,
        station_shard: Tuple[int, ...],
        config: FabricConfig,
        name: str = "switch0",
    ):
        if config.kind != "switch":
            raise NetworkError("sharded fabric requires the switched LAN")
        super().__init__(
            sim,
            config.rate_bps,
            config.forward_latency,
            PROP_DELAY,
            config.cut_through,
            name,
        )
        self.shard = shard
        #: global station -> shard map (every card knows the whole topology)
        self.station_shard = station_shard
        self.lookahead = min_frame_time(config.rate_bps)
        #: monotone per-card sequence over local sends; per-station order is
        #: preserved under any partition, which is all the canonical sort needs
        self._send_seq = 0
        #: emitted records for other shards' stations, drained and routed by
        #: the engine at the window boundary
        self.outbox: List[Handoff] = []
        #: records for this shard's stations (kept here or routed here),
        #: armed by :meth:`admit_pending` at the window boundary
        self.inbox: List[Handoff] = []
        #: records kept in the inbox since the engine last drained the
        #: outbox (they count as handoffs, not crossings)
        self.kept = 0
        #: pending downlink touches: (target, effect_time) -> records
        self._touch_buf: Dict[Tuple[int, float], List[Handoff]] = {}

    # -- fabric interface (NIC-facing) ------------------------------------
    def attach(self, station_id: int, deliver: Callable[[EthernetFrame], None]) -> None:
        if not (0 <= station_id < len(self.station_shard)):
            raise NetworkError(f"station {station_id} is outside the cluster")
        if self.station_shard[station_id] != self.shard:
            raise NetworkError(
                f"station {station_id} belongs to shard "
                f"{self.station_shard[station_id]}, not {self.shard}"
            )
        super().attach(station_id, deliver)

    def send(self, frame: EthernetFrame) -> Generator[Event, Any, str]:
        """Serialise onto the local uplink; emit downlink touches for every
        destination port at transmission start: to the inbox for this
        shard's stations, to the outbox for the others."""
        if frame.src not in self._stations:
            raise NetworkError(
                f"source station {frame.src} is not attached to {self.name}"
            )
        n_stations = len(self.station_shard)
        if frame.dst != BROADCAST and not (0 <= frame.dst < n_stations):
            raise NetworkError(
                f"destination station {frame.dst} is not attached to {self.name}"
            )
        sim = self.sim
        tx = self.transmission_time(frame)
        now = sim.now
        start, done = self._uplink(frame.src, tx)
        # Everything about this frame's forwarding is decided *now*: emit
        # the touch records immediately so remote shards learn about the
        # frame a full transmission time before it takes effect (lookahead).
        ready = self._ready(start, done)
        self._send_seq += 1
        seq = self._send_seq
        targets = (
            range(n_stations) if frame.dst == BROADCAST else (frame.dst,)
        )
        station_shard = self.station_shard
        shard = self.shard
        for target in targets:
            if target == frame.src:
                continue
            record = (done, frame.src, seq, ready, target, frame)
            if station_shard[target] == shard:
                self.inbox.append(record)
                self.kept += 1
            else:
                self.outbox.append(record)
        yield sim.timeout(done - now)
        self.stats.counter("frames_sent").increment()
        self.stats.counter("bytes_sent").increment(frame.wire_bytes)
        return "ok"

    # -- canonical downlink sequencing ------------------------------------
    def admit_pending(self) -> None:
        """Arm every inbox record's flush (engine: at window boundaries).

        Records arrive with effect times at or beyond the next window's
        horizon (the lookahead guarantee), so boundary arming is never late.
        The sort fixes the arm order — and with it this simulator's
        tie-break sequence stream — independently of which shard each record
        came from and of the interleaving that produced it.
        """
        inbox = self.inbox
        if not inbox:
            return
        self.inbox = []
        inbox.sort(key=lambda r: (r[0], r[4], r[1], r[2]))
        for record in inbox:
            self._buffer_touch(record)

    def _buffer_touch(self, record: Handoff) -> None:
        key = (record[4], record[0])
        buf = self._touch_buf.get(key)
        if buf is None:
            self._touch_buf[key] = [record]
            # One flush event per (target, effect-time) pair at any shard
            # count — this is what keeps events_processed N-invariant.
            timer = self.sim.timeout_at(record[0], value=key)
            timer.callbacks.append(self._flush)
        else:
            buf.append(record)

    def _flush(self, event: Event) -> None:
        """Apply all touches for one (target, time) in canonical order."""
        key = event._value
        records = self._touch_buf.pop(key)
        if len(records) > 1:
            # (src_station, src_seq): identical at every shard count.
            records.sort(key=lambda r: (r[1], r[2]))
        sim = self.sim
        now = sim.now
        for _done, _src, _seq, ready, target, frame in records:
            arrival = self._downlink(target, ready, self.transmission_time(frame))
            timer = sim.timeout(arrival - now)
            timer.callbacks.append(
                lambda _ev, f=frame, t=target: self._deliver(f, t)
            )

    def _deliver(self, frame: EthernetFrame, target: int) -> None:
        self.stats.counter("frames_delivered").increment()
        self._stations[target](frame)


@dataclass
class ShardNetwork:
    """Per-shard fabric cards plus the per-station NICs.

    Construction-compatible with :class:`repro.network.topology.ClusterNetwork`
    for the one method cluster assembly uses (:meth:`nic`); the aggregate
    ``fabric`` view does not exist here — statistics are merged per shard by
    :meth:`repro.shard.cluster.ShardedCluster.stats_snapshot`.
    """

    cards: List[ShardSwitchCard]
    nics: Dict[int, NIC] = field(default_factory=dict)

    def nic(self, station_id: int) -> NIC:
        try:
            return self.nics[station_id]
        except KeyError:
            from ..errors import ConfigurationError

            raise ConfigurationError(f"no NIC for station {station_id}") from None

    @property
    def station_ids(self) -> List[int]:
        return sorted(self.nics)

    def card_of(self, station_id: int) -> ShardSwitchCard:
        return self.cards[self.cards[0].station_shard[station_id]]


def build_shard_network(
    sims: List[Simulator],
    plan: ShardPlan,
    n_stations: int,
    config: FabricConfig,
) -> ShardNetwork:
    """One card per shard, one NIC per station on its shard's simulator."""
    if n_stations != plan.n_machines:
        raise NetworkError(
            f"plan covers {plan.n_machines} machines, cluster has {n_stations}"
        )
    station_shard = plan.machine_shard
    cards = [
        ShardSwitchCard(sims[s], s, station_shard, config)
        for s in range(plan.n_shards)
    ]
    net = ShardNetwork(cards=cards)
    for sid in range(n_stations):
        card = cards[station_shard[sid]]
        net.nics[sid] = NIC(card.sim, card, sid)
    return net
