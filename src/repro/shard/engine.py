"""The conservative windowed driver for a sharded cluster.

Classic conservative parallel DES, specialised to the switched fabric's
constant lookahead ``L`` (one minimum-frame serialisation time):

1. **Route**: move every shard's cross-shard records to the destination
   shard's pending list (deterministic shard-major order).  A record for a
   station on its own shard never leaves that shard: the card keeps it in
   its inbox, and the shard reports its effect time with its next event.
2. **Window**: ``W`` = the earliest of every shard's next event (kept
   records included) and every routed record's effect time; every shard
   then admits its records
   (arming their flush events in canonical sorted order, see
   :mod:`repro.shard.fabric`) and processes events strictly before the
   horizon ``H = W + L``.  No shard can receive a cross-shard effect
   earlier than ``H`` for frames emitted in this window, so nothing is
   ever delivered into a shard's past — the barrier replaces per-pair null
   messages (with one global reduction per window instead of O(shards²)
   nulls).
3. Repeat until every heap is empty and no records are in flight, then
   align every shard's clock to the globally last event time.

``W`` is computed *before* admission, from the records themselves, and is
exactly the minimum over the admitted heaps: a card arms each flush at the
record's absolute effect time (:meth:`~repro.sim.core.Simulator.timeout_at`),
so admission adds heap entries at precisely those times and no others.
Whether a record waited in its own card's inbox or crossed a boundary, it
is admitted at the same boundary in the same sorted order, so ``W``, the
horizon and every arm sequence are those of a run that routed every record.

**Analytic idle fast-forward** falls out of step 2: when the cluster goes
quiescent (a long computation phase, a drained network), ``W`` jumps
straight to the next event — the engine advances the global clock in one
step over any dead span instead of ticking lookahead-sized windows through
it.  The jump is exact by construction: ``W`` is the global minimum over
every heap and every in-flight record, so nothing can exist in the
skipped span ``(previous horizon, W)``.  The ``ff_jumps`` /
``ff_time_skipped`` counters report how much simulated time was crossed
this way.

:class:`ShardEngine` is the only window driver.  It talks to each shard
through an *endpoint* with two requests, ``window(horizon, records)`` and
``finalize(end)``, each answered by ``wait()``.  :class:`LocalShard` is the
in-process endpoint (``shard_workers="inline"``); the process backend
(:mod:`repro.shard.procpool`) runs shard 0 on a :class:`LocalShard` in the
driver's own process and proxies the other shards' requests over pipes to
workers that serve them with their own :class:`LocalShard`.  Every request
is issued to all proxied shards before any in-process window runs, and
before any reply is awaited, so the driver's shard and the workers run
their windows concurrently.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from ..errors import DSEError
from .fabric import Handoff, ShardSwitchCard

__all__ = ["LocalShard", "ShardEngine"]

_INF = float("inf")

#: one shard's reply to a window: (cross-shard records, records kept
#: locally, next-event time, clock)
WindowReply = Tuple[List[Handoff], int, float, float]


class LocalShard:
    """In-process endpoint: one shard's simulator behind its switch card.

    Requests run to completion on the spot, so ``wait()`` simply reports
    the shard's current state — which also makes the driver's first
    ``wait()``, before any request, read each shard's starting state.
    """

    def __init__(self, card: ShardSwitchCard) -> None:
        self.card = card
        self.sim = card.sim

    def window(self, horizon: float, records: List[Handoff]) -> None:
        """Admit kept and routed records, then run every event before
        ``horizon``."""
        card = self.card
        card.inbox.extend(records)
        card.admit_pending()
        self.sim.run_window(horizon)

    def finalize(self, end: float) -> None:
        """Advance the clock to the run's last event time ``end``."""
        if self.sim.now < end:
            self.sim.advance_to(end)

    def wait(self) -> WindowReply:
        """Drain the outbox and report ``(records, kept, next event, clock)``.

        The next event is the earlier of the heap's head and the effect
        time of any record kept in the inbox, which is armed only at the
        next window boundary.
        """
        card = self.card
        out, card.outbox = card.outbox, []
        kept, card.kept = card.kept, 0
        peek = self.sim.peek()
        for record in card.inbox:
            if record[0] < peek:
                peek = record[0]
        return out, kept, peek, self.sim.now


class ShardEngine:
    """Drives a set of shard endpoints to completion."""

    def __init__(
        self,
        endpoints: Sequence[Any],
        station_shard: Sequence[int],
        lookahead: float,
    ) -> None:
        self.endpoints = list(endpoints)
        #: request order: proxied endpoints first, so their windows are
        #: under way before an in-process window occupies this process
        self._issue_order = sorted(
            range(len(self.endpoints)),
            key=lambda i: isinstance(self.endpoints[i], LocalShard),
        )
        self.station_shard = station_shard
        self.lookahead = lookahead
        #: wall-side diagnostics (N-invariant by construction, but kept out
        #: of simulated statistics all the same)
        self.stats: Dict[str, float] = {
            "windows": 0,
            "handoffs": 0,
            "crossings": 0,
            "ff_jumps": 0,
            "ff_time_skipped": 0.0,
        }

    @classmethod
    def in_process(cls, cards: Sequence[ShardSwitchCard]) -> "ShardEngine":
        """The inline engine: one :class:`LocalShard` per card."""
        return cls(
            [LocalShard(card) for card in cards],
            cards[0].station_shard,
            cards[0].lookahead,
        )

    def run_all(self, max_windows: int = 100_000_000) -> List[Any]:
        """Window-synchronised drain of every shard; returns each
        endpoint's reply to ``finalize``."""
        endpoints = self.endpoints
        station_shard = self.station_shard
        stats = self.stats
        lookahead = self.lookahead
        pending: List[List[Handoff]] = [[] for _ in endpoints]
        replies = [ep.wait() for ep in endpoints]
        last_horizon = None
        for _ in range(max_windows):
            window_start = _INF
            for out, kept, peek, _now in replies:
                if peek < window_start:
                    window_start = peek
                for record in out:
                    pending[station_shard[record[4]]].append(record)
                stats["crossings"] += len(out)
                stats["handoffs"] += len(out) + kept
            for records in pending:
                for record in records:
                    if record[0] < window_start:
                        window_start = record[0]
            if window_start == _INF:
                return self._finalize(max(reply[3] for reply in replies))
            if last_horizon is not None and window_start > last_horizon:
                stats["ff_jumps"] += 1
                stats["ff_time_skipped"] += window_start - last_horizon
            horizon = window_start + lookahead
            stats["windows"] += 1
            for i in self._issue_order:
                endpoints[i].window(horizon, pending[i])
            pending = [[] for _ in endpoints]
            replies = [ep.wait() for ep in endpoints]
            last_horizon = horizon
        raise DSEError(
            f"sharded run exceeded {max_windows} windows (runaway guard)"
        )

    def _finalize(self, end: float) -> List[Any]:
        """Align every shard's clock to the globally last event time.

        Time-weighted monitors (run-queue load averages) read the clock at
        snapshot time; without alignment each shard would stop at its own
        last event and per-shard statistics would depend on the shard map.
        """
        for i in self._issue_order:
            self.endpoints[i].finalize(end)
        return [ep.wait() for ep in self.endpoints]
