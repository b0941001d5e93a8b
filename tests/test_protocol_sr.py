"""Tests for the selective-repeat + SACK transport and the dual channel.

Covers the edge paths the loss benchmarks do not isolate: SACK-range
coalescing, burst recovery through the congestion-window floor, raw/
reliable interleaving on one port, and the legacy stop-and-wait
re-acknowledgement of already-delivered duplicates.
"""

import pytest

from repro.dse import ClusterConfig, run_parallel
from repro.errors import ProtocolError
from repro.hardware import get_platform
from repro.network import (
    BurstLossConfig,
    EthernetBus,
    FabricConfig,
    LossInjector,
    NIC,
    SwitchedLAN,
)
from repro.protocol import (
    DatagramService,
    ReliableService,
    SelectiveRepeatService,
    SRSegment,
    coalesce_ranges,
    make_transport,
)
from repro.sim import RandomStreams, Simulator


# -- SACK range coalescing ---------------------------------------------------

def test_coalesce_empty():
    assert coalesce_ranges([]) == ()


def test_coalesce_single_run():
    assert coalesce_ranges([4, 2, 3]) == ((2, 4),)


def test_coalesce_disjoint_runs_sorted():
    assert coalesce_ranges([5, 3, 4, 9, 7]) == ((3, 5), (7, 7), (9, 9))


def test_coalesce_duplicates_collapse():
    assert coalesce_ranges([1, 1, 2, 2, 4]) == ((1, 2), (4, 4))


def test_coalesce_singletons():
    assert coalesce_ranges([10, 20, 30]) == ((10, 10), (20, 20), (30, 30))


def test_sack_ranges_capped_on_the_wire():
    """The receiver advertises at most max_sack_ranges blocks per ack."""
    sim = Simulator()
    lan = SwitchedLAN(sim)
    a = SelectiveRepeatService(sim, DatagramService(sim, NIC(sim, lan, 0)))
    b = SelectiveRepeatService(
        sim, DatagramService(sim, NIC(sim, lan, 1)), max_sack_ranges=2
    )
    b.bind(4)
    # Watch b's outgoing acks by spying on its datagram layer.
    captured_b = []

    original_b = b.datagram.send

    def spy_b(dst, dst_port, payload, nbytes, src_port=0, trace=None):
        if isinstance(payload, SRSegment) and payload.kind == "ack":
            captured_b.append(payload)
        yield from original_b(dst, dst_port, payload, nbytes, src_port, trace=trace)

    b.datagram.send = spy_b

    rx = b._rx
    # Inject a gappy receive pattern directly: 1,3,5,7 buffered behind
    # missing 0 — four singleton holes, more than the two-range cap.
    def sender():
        for seq in (1, 3, 5, 7):
            seg = SRSegment(kind="data", seq=seq, user_payload=seq)
            yield from a.datagram.send(1, 4, seg, 16)
        yield sim.timeout(0.01)

    sim.run(sim.process(sender()))
    assert captured_b, "receiver never acked"
    for ack in captured_b:
        assert len(ack.sack) <= 2
    # The last ack advertises the two lowest runs (closest to the hole).
    assert captured_b[-1].sack == ((1, 1), (3, 3))
    assert list(rx.values())[0].rcv_next == 0  # still waiting on seq 0


# -- selective repeat under burst loss --------------------------------------

def make_sr_pair(sim, seed=7, fabric="switch", **options):
    if fabric == "switch":
        lan = SwitchedLAN(sim)
    else:
        lan = EthernetBus(sim, RandomStreams(seed))
    nic_a, nic_b = NIC(sim, lan, 0), NIC(sim, lan, 1)
    a = SelectiveRepeatService(sim, DatagramService(sim, nic_a), **options)
    b = SelectiveRepeatService(sim, DatagramService(sim, nic_b), **options)
    return a, b, nic_a, nic_b


def stream(sim, a, mbox, n, payload_bytes=32):
    def sender():
        for i in range(n):
            yield from a.send(1, 4, i, payload_bytes)
        yield from a.flush(1, 4)

    def receiver():
        got = []
        for _ in range(n):
            pkt = yield mbox.get()
            got.append(pkt.payload)
        return got

    sim.process(sender())
    return sim.run(sim.process(receiver()))


def test_sr_basic_stream_in_order():
    sim = Simulator()
    a, b, *_ = make_sr_pair(sim)
    mbox = b.bind(4)
    assert stream(sim, a, mbox, 30) == list(range(30))
    assert a.stats.counter("retransmissions").value == 0


def test_sr_recovers_from_ge_burst_through_cwnd_floor():
    """A hard burst forces RTOs down to the cwnd floor; the stream still
    completes in order and the window climbs back out afterwards."""
    sim = Simulator()
    a, b, nic_a, nic_b = make_sr_pair(sim, seed=11)
    mbox = b.bind(4)
    injector = LossInjector(
        sim, nic_b, RandomStreams(23),
        burst=BurstLossConfig(p_enter_bad=0.08, p_exit_bad=0.10),
    )
    injector.arm()
    n = 120
    assert stream(sim, a, mbox, n) == list(range(n))
    sim.run_all()  # let the sender's flush drain the final acks
    assert injector.stats.counter("dropped").value > 0
    assert a.stats.counter("retransmissions").value > 0
    assert a.stats.counter("timeouts").value > 0
    assert a.stats.counter("cwnd_floor_hits").value > 0
    # Slow start reopened the window after the collapse to the floor.
    state = a.flow_state(1, 4)
    assert state["cwnd"] > 1.0
    assert state["in_flight"] == 0  # flush drained everything


def test_sr_fast_retransmit_fills_single_hole_without_timeout():
    """One dropped data frame amid a stream: SACK scoreboard triggers a
    fast retransmit; the retransmission timer never has to fire."""
    sim = Simulator()
    a, b, nic_a, nic_b = make_sr_pair(sim, seed=3)
    mbox = b.bind(4)
    dropped = []

    def drop_seq_5(frame):
        seg = getattr(frame.payload.packet, "payload", None)
        if isinstance(seg, SRSegment) and seg.kind == "data" and seg.seq == 5:
            if not dropped:
                dropped.append(seg.seq)
                return True
        return False

    injector = LossInjector(
        sim, nic_b, RandomStreams(1), drop_rate=1.0, predicate=drop_seq_5
    )
    injector.arm()
    n = 30
    assert stream(sim, a, mbox, n) == list(range(n))
    assert dropped == [5]
    assert a.stats.counter("fast_retransmits").value >= 1
    assert a.stats.counter("timeouts").value == 0
    assert b.stats.counter("out_of_order_buffered").value > 0


def test_sr_stalled_flow_raises():
    sim = Simulator()
    a, b, nic_a, nic_b = make_sr_pair(sim, max_stall_rounds=4)
    b.bind(4)
    nic_b.on_receive(lambda frame: None)  # black hole

    def sender():
        yield from a.send(1, 4, "void", 32)
        yield from a.flush(1, 4)

    sim.process(sender())
    with pytest.raises(ProtocolError, match="stalled"):
        sim.run_all()


def test_sr_duplicate_data_is_reacked_not_redelivered():
    """Stop-and-wait re-ack semantics carry over: a duplicate of delivered
    data refreshes the ack but never reaches the application twice."""
    sim = Simulator()
    a, b, *_ = make_sr_pair(sim)
    mbox = b.bind(4)
    assert stream(sim, a, mbox, 3) == [0, 1, 2]

    def replay_old():
        # Re-inject seq 0 as if the sender's timer had gone spurious.
        yield from a.datagram.send(1, 4, SRSegment(kind="data", seq=0, user_payload=0), 16)
        yield sim.timeout(0.01)

    before = b.stats.counter("sacks_sent").value
    sim.run(sim.process(replay_old()))
    assert b.stats.counter("duplicates_dropped").value == 1
    assert b.stats.counter("sacks_sent").value == before + 1  # re-acked
    assert len(mbox) == 0  # nothing redelivered


# -- dual channel ------------------------------------------------------------

def make_dual_pair(sim, seed=7):
    lan = SwitchedLAN(sim)
    nic_a, nic_b = NIC(sim, lan, 0), NIC(sim, lan, 1)
    a = make_transport(sim, nic_a, "dual")
    b = make_transport(sim, nic_b, "dual")
    return a, b, nic_a, nic_b


def test_dual_channels_interleave_into_one_mailbox():
    """Raw datagrams overtake queued reliable traffic on the same port —
    both arrive, each with its own ordering contract."""
    sim = Simulator()
    a, b, *_ = make_dual_pair(sim)
    mbox = b.bind(4)

    def sender():
        for i in range(6):
            yield from a.send(1, 4, ("rel", i), 64, channel="reliable")
            yield from a.send(1, 4, ("raw", i), 64, channel="unreliable")
        yield from a.flush(1, 4)

    def receiver():
        got = []
        for _ in range(12):
            pkt = yield mbox.get()
            got.append(pkt.payload)
        return got

    sim.process(sender())
    got = sim.run(sim.process(receiver()))
    rel = [i for tag, i in got if tag == "rel"]
    raw = [i for tag, i in got if tag == "raw"]
    assert rel == list(range(6))  # reliable lane stays ordered
    assert sorted(raw) == list(range(6))  # raw lane all arrived (loss-free)
    assert a.stats.counter("unreliable_sent").value == 6
    assert b.stats.counter("raw_delivered").value == 6


def test_dual_unreliable_loss_is_silent():
    """The raw lane gives no delivery guarantee: drops are invisible to
    the sender (application-level retry is the contract)."""
    sim = Simulator()
    a, b, nic_a, nic_b = make_dual_pair(sim)
    mbox = b.bind(4)
    injector = LossInjector(sim, nic_b, RandomStreams(1), drop_rate=1.0)
    injector.arm()

    def sender():
        yield from a.send(1, 4, "gone", 64, channel="unreliable")
        yield sim.timeout(0.01)

    sim.run(sim.process(sender()))
    assert len(mbox) == 0
    assert a.stats.counter("retransmissions").value == 0  # nobody retried


def test_dual_unknown_channel_rejected():
    sim = Simulator()
    a, _b, *_ = make_dual_pair(sim)
    with pytest.raises(ProtocolError, match="unknown channel"):
        next(a.send(1, 4, "x", 8, channel="bulk"))


def test_dual_reliable_reordering_repaired_before_delivery():
    """Under burst loss the reliable lane still delivers in order while
    the raw lane arrives on whatever frames survive."""
    sim = Simulator()
    a, b, nic_a, nic_b = make_dual_pair(sim, seed=19)
    mbox = b.bind(4)
    injector = LossInjector(
        sim, nic_b, RandomStreams(29),
        burst=BurstLossConfig(p_enter_bad=0.05, p_exit_bad=0.20),
    )
    injector.arm()
    n = 60

    def sender():
        for i in range(n):
            yield from a.send(1, 4, ("rel", i), 32, channel="reliable")
            yield from a.send(1, 4, ("raw", i), 32, channel="unreliable")
        yield from a.flush(1, 4)
        yield sim.timeout(0.02)

    got = []

    mbox.on_arrival = lambda pkt: got.append(pkt.payload)
    sim.run(sim.process(sender()))
    rel = [i for tag, i in got if tag == "rel"]
    raw = [i for tag, i in got if tag == "raw"]
    assert rel == list(range(n))  # repaired: in order, exactly once
    assert len(raw) < n  # the raw lane really lost some
    assert sorted(set(raw)) == raw  # ...but never duplicated or reordered
    assert injector.stats.counter("dropped").value > 0


def test_make_transport_sr_and_dual():
    sim = Simulator()
    lan = SwitchedLAN(sim)
    nic = NIC(sim, lan, 0)
    assert isinstance(make_transport(sim, nic, "sr"), SelectiveRepeatService)
    assert not make_transport(sim, NIC(sim, lan, 1), "sr").dual_channel
    dual = make_transport(sim, NIC(sim, lan, 2), "dual")
    assert isinstance(dual, SelectiveRepeatService)
    assert dual.dual_channel


def test_single_channel_sr_has_no_raw_lane():
    sim = Simulator()
    lan = SwitchedLAN(sim)
    sr = make_transport(sim, NIC(sim, lan, 0), "sr")
    with pytest.raises(ProtocolError, match="unknown channel"):
        next(sr.send(1, 4, "x", 8, channel="unreliable"))


# -- legacy stop-and-wait re-ack path ---------------------------------------

def test_stop_and_wait_reacks_duplicate_of_delivered_data():
    """tcp.py duplicate path: a data frame below the expected sequence
    number (our ack was lost) must be re-acked — otherwise the sender
    retransmits forever — and must not be redelivered."""
    sim = Simulator()
    lan = SwitchedLAN(sim)
    nic_a, nic_b = NIC(sim, lan, 0), NIC(sim, lan, 1)
    a = ReliableService(sim, DatagramService(sim, nic_a), retransmit_timeout=0.004)
    b = ReliableService(sim, DatagramService(sim, nic_b))
    mbox = b.bind(4)

    # Drop exactly the first ack leaving b: the sender must retransmit,
    # and the receiver must answer the duplicate with a fresh ack.
    dropped = []

    def drop_first_ack(frame):
        payload = getattr(frame.payload.packet, "payload", None)
        if getattr(payload, "kind", "") == "ack" and not dropped:
            dropped.append(payload.seq)
            return True
        return False

    injector = LossInjector(
        sim, nic_a, RandomStreams(2), drop_rate=1.0, predicate=drop_first_ack
    )
    injector.arm()

    def sender():
        yield from a.send(1, 4, "hello", 32)

    def receiver():
        pkt = yield mbox.get()
        return pkt.payload

    sim.process(sender())
    assert sim.run(sim.process(receiver())) == "hello"
    sim.run_all()
    assert dropped == [0]
    assert a.stats.counter("retransmissions").value >= 1
    assert b.stats.counter("duplicates_dropped").value >= 1
    assert b.stats.counter("delivered").value == 1  # exactly once
    assert len(mbox) == 0


def test_stop_and_wait_stays_silent_on_future_segment():
    """tcp.py out-of-order path: a from-the-future segment is *not*
    acked (acking would confirm discarded data); the sender's timer
    eventually fills the gap."""
    sim = Simulator()
    lan = SwitchedLAN(sim)
    nic_a, nic_b = NIC(sim, lan, 0), NIC(sim, lan, 1)
    a = ReliableService(sim, DatagramService(sim, nic_a))
    b = ReliableService(sim, DatagramService(sim, nic_b))
    mbox = b.bind(4)

    from repro.protocol.tcp import _Seg

    def inject_future():
        yield from a.datagram.send(1, 4, _Seg(kind="data", seq=7, user_payload="x"), 16)
        yield sim.timeout(0.01)

    sim.run(sim.process(inject_future()))
    assert b.stats.counter("out_of_order_dropped").value == 1
    assert b.stats.counter("delivered").value == 0
    assert len(mbox) == 0


# -- cluster-level dual transport -------------------------------------------

def test_dual_transport_runs_workload_with_sanitizers():
    """A full SPMD workload on the dual transport: identical results to
    the stop-and-wait baseline, sanitizers clean, raw lane exercised."""
    from repro.apps import matmul_worker

    def run(transport):
        config = ClusterConfig(
            platform=get_platform("sunos"),
            n_processors=4,
            transport=transport,
            fabric=FabricConfig(kind="switch"),
            sanitize=("race", "deadlock"),
        )
        return run_parallel(config, matmul_worker, args=(8,))

    import numpy as np

    base = run("reliable")
    dual = run("dual")
    # Rank 0 gathers and verifies the full product matrix.
    assert np.array_equal(base.returns[0]["c"], dual.returns[0]["c"])
    for rank in base.returns:
        assert base.returns[rank]["rows"] == dual.returns[rank]["rows"]
    assert dual.stats["net.unreliable_sent"] > 0
    assert dual.stats["san.races"] == 0
    assert dual.stats["san.lock_cycles"] == 0
