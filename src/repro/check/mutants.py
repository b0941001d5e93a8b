"""Reintroduced historical bugs, for the checker's regression corpus.

These classes exist so the model checker can prove it finds *known-real*
defects -- the two bugs PR 3's dynamic sanitizers caught are brought back
here, behind test-only subclasses that production code never imports:

* :class:`LostWakeupReliableService` restores the stop-and-wait ack bug
  fixed in ``db3c692``: the receiver acknowledged *every* segment before
  checking its sequence number, so an out-of-order segment was confirmed
  to the sender and then discarded.  The sender stopped retransmitting
  and the payload was gone -- a lost wakeup whenever the payload was a
  lock grant or barrier release.
* The Gauss-Seidel gather race (worker reads neighbour slices before the
  writers' remote writes have landed) is reproduced structurally by the
  ``gather-race`` DSE scope, which runs the same write/read pattern with
  its synchronizing barrier removed (see
  :meth:`repro.check.dse_harness.DSEHarness` and
  :data:`repro.check.scopes.SCOPES`).
"""

from __future__ import annotations

from ..protocol.packet import Packet
from ..protocol.tcp import ReliableService, _Seg


class LostWakeupReliableService(ReliableService):
    """Stop-and-wait with the pre-``db3c692`` receive path.

    Identical to :class:`~repro.protocol.tcp.ReliableService` except that
    ``_on_data`` re-acks *before* the in-order check -- the "always
    (re-)ack what we have seen so a lost ack is repaired" rationale that
    looked plausible and confirmed discarded data.  The checker must
    rediscover the consequence: drop the first of two pipelined segments
    and deliver the second, and the sender of the second completes while
    its payload is silently lost.
    """

    def _on_data(self, packet: Packet, outer) -> None:
        seg = packet.payload
        key = (packet.src, packet.dst_port)
        expected = self._recv_seq.get(key, 0)
        # BUG (reintroduced): acks everything seen, including segments we
        # are about to discard as out-of-order.
        self._send_ack(packet.src, _Seg("ack", seg.seq, packet.dst_port))
        if seg.seq != expected:
            self.stats.counter("duplicates_dropped").increment()
            return
        self._recv_seq[key] = expected + 1
        self._deliver_user(packet, seg.user_payload, outer)
