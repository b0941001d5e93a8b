"""Tests for the sharded parallel-in-time engine (``repro.shard``).

The headline guarantee: ``--shards N`` produces byte-identical simulated
results — elapsed time, per-rank returns, the full statistics snapshot,
and even ``events_processed`` — for every N, including 1, and for both
worker backends (inline and OS processes).  Everything else here defends
the pieces that guarantee rests on: the lookahead bound at its exact
boundary, canonical cross-shard ordering, the contiguous partitioner,
and the configuration fences around features that assume one global
event stream.
"""

import json
import multiprocessing
import os

import pytest

from repro.apps.gauss_seidel import gauss_seidel_worker
from repro.apps.matmul import matmul_worker
from repro.dse.config import ClusterConfig
from repro.dse.runtime import launch_parallel, run_master, run_parallel
from repro.errors import ConfigurationError, DSEError, NetworkError
from repro.experiments.parallel import cache_key
from repro.network.frame import EthernetFrame
from repro.network.topology import FabricConfig
from repro.shard import (
    LocalShard,
    ShardEngine,
    ShardPlan,
    ShardSwitchCard,
    merge_partial_stats,
    min_frame_time,
    plan_shards,
)
from repro.sim.core import Simulator
from repro.traffic.cluster_backend import run_cluster_traffic


def _config(shards, kernels=8, machines=8, **kw):
    return ClusterConfig(
        n_processors=kernels,
        n_machines=machines,
        fabric=FabricConfig(kind="switch"),
        shards=shards,
        **kw,
    )


def _fingerprint(result):
    """Every simulated quantity of a run, as one comparable value."""
    return repr(
        (
            result.elapsed,
            result.sim_events,
            sorted(result.stats.items()),
            sorted(result.returns.items()),
        )
    )


# -- byte-identity across shard counts ----------------------------------------
def test_matmul_identical_at_every_shard_count():
    prints = {
        s: _fingerprint(
            run_parallel(_config(s), matmul_worker, args=(24,))
        )
        for s in (1, 2, 4)
    }
    assert prints[2] == prints[1]
    assert prints[4] == prints[1]


def test_gauss_seidel_identical_at_every_shard_count():
    # The process backend runs here too: this configuration is where a
    # flush armed relative to a lagging card clock once put the inline and
    # process window starts one ulp apart.
    runs = ((1, "inline"), (2, "inline"), (4, "inline"), (2, "process"), (4, "process"))
    prints = {
        run: _fingerprint(
            run_parallel(
                _config(run[0], kernels=4, machines=4, shard_workers=run[1]),
                gauss_seidel_worker,
                args=(16, 3),
            )
        )
        for run in runs
    }
    for run in runs[1:]:
        assert prints[run] == prints[runs[0]], run


def test_traffic_full_stack_identical_at_every_shard_count():
    prints = {
        s: json.dumps(
            run_cluster_traffic(n_kernels=8, n_requests=120, shards=s),
            sort_keys=True,
        )
        for s in (1, 2, 4)
    }
    assert prints[2] == prints[1]
    assert prints[4] == prints[1]


@pytest.mark.skipif(
    not os.environ.get("REPRO_SHARD_HEAVY"),
    reason="120k-request sweep takes minutes; set REPRO_SHARD_HEAVY=1",
)
def test_traffic_120k_requests_identical_at_every_shard_count():
    prints = {
        s: json.dumps(
            run_cluster_traffic(
                n_kernels=16, n_requests=120_000, arrival_rate=400.0, shards=s
            ),
            sort_keys=True,
        )
        for s in (1, 2, 4)
    }
    assert prints[2] == prints[1]
    assert prints[4] == prints[1]


def test_process_backend_matches_inline():
    inline = run_parallel(
        _config(2, kernels=4, machines=4),
        gauss_seidel_worker,
        args=(12, 2),
    )
    process = run_parallel(
        _config(2, kernels=4, machines=4, shard_workers="process"),
        gauss_seidel_worker,
        args=(12, 2),
    )
    assert process.cluster is None  # state lives in the (gone) workers
    assert process.elapsed == inline.elapsed
    assert process.sim_events == inline.sim_events
    assert repr(sorted(process.returns.items())) == repr(
        sorted(inline.returns.items())
    )
    assert process.stats == inline.stats
    # byte-level: int counters must not come back as floats from the merge
    assert json.dumps(process.stats, sort_keys=True) == json.dumps(
        inline.stats, sort_keys=True
    )


def test_process_backend_with_the_master_on_a_worker():
    # Machine 0 (kernel 0, where the master runs) on shard 1: the parent
    # simulates shard 0 while a worker owns the run outcome.
    runs = {
        workers: run_parallel(
            _config(
                2, kernels=4, machines=4, shard_map=(1, 1, 0, 0),
                shard_workers=workers,
            ),
            gauss_seidel_worker,
            args=(12, 2),
        )
        for workers in ("inline", "process")
    }
    inline, process = runs["inline"], runs["process"]
    assert process.elapsed == inline.elapsed
    assert repr(sorted(process.returns.items())) == repr(
        sorted(inline.returns.items())
    )
    assert process.sim_events == inline.sim_events
    assert json.dumps(process.stats, sort_keys=True) == json.dumps(
        inline.stats, sort_keys=True
    )


def _fail_on_rank_0(api, n, iterations):
    if api.rank == 0:
        raise RuntimeError("rank 0 failed on the driver's shard")
    return (yield from gauss_seidel_worker(api, n, iterations))


@pytest.fixture
def started_processes(monkeypatch):
    """Names of the processes started while the test runs."""
    names = []
    start = multiprocessing.process.BaseProcess.start

    def recording_start(process):
        names.append(process.name)
        start(process)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", recording_start)
    return names


def _live_shard_workers():
    return [
        p for p in multiprocessing.active_children()
        if p.name.startswith("repro-shard-")
    ]


@pytest.mark.parametrize("shards", [1, 2, 3])
def test_process_backend_starts_a_worker_per_other_shard(started_processes, shards):
    # The driver simulates shard 0 itself.
    run_parallel(
        _config(shards, kernels=4, machines=4, shard_workers="process"),
        gauss_seidel_worker,
        args=(12, 2),
    )
    assert started_processes == [f"repro-shard-{s}" for s in range(1, shards)]
    assert _live_shard_workers() == []


def test_process_backend_joins_workers_when_the_driver_shard_fails(
    started_processes,
):
    with pytest.raises(RuntimeError, match="rank 0 failed"):
        run_parallel(
            _config(3, kernels=4, machines=4, shard_workers="process"),
            _fail_on_rank_0,
            args=(12, 2),
        )
    assert started_processes == ["repro-shard-1", "repro-shard-2"]
    assert _live_shard_workers() == []


def test_snapshot_keys_and_types_identical_at_shards_0_1_2():
    snaps = [
        run_parallel(
            _config(s, kernels=4, machines=4), gauss_seidel_worker, args=(12, 2)
        ).stats
        for s in (0, 1, 2)
    ]
    shapes = [[(key, type(value)) for key, value in snap.items()] for snap in snaps]
    assert shapes[1] == shapes[0]
    assert shapes[2] == shapes[0]
    assert snaps[1] == snaps[0] and snaps[2] == snaps[0]


def test_explicit_shard_map_changes_nothing_simulated():
    auto = run_parallel(
        _config(2, kernels=4, machines=4),
        gauss_seidel_worker,
        args=(12, 2),
    )
    skewed = run_parallel(
        _config(2, kernels=4, machines=4, shard_map=(0, 0, 0, 1)),
        gauss_seidel_worker,
        args=(12, 2),
    )
    assert _fingerprint(skewed) == _fingerprint(auto)


def test_fast_forward_skips_quiescent_spans():
    result = run_parallel(
        _config(2, kernels=4, machines=4),
        gauss_seidel_worker,
        args=(12, 2),
    )
    stats = result.cluster.engine.stats
    assert stats["windows"] > 0
    assert stats["crossings"] > 0  # the partition actually cut traffic
    assert stats["ff_jumps"] > 0  # idle spans were jumped analytically
    assert stats["ff_time_skipped"] > 0.0


#: ``ShardEngine.stats`` of gauss-seidel (12, 2) on 4 machines, recorded
#: when every record, same-shard ones included, was routed by the driver
_GS_WINDOW_SCHEDULE = {"windows": 235, "handoffs": 117, "ff_jumps": 234}
_GS_CROSSINGS = {1: 0, 2: 78, 4: 117}


class _OutboxCheckedShard(LocalShard):
    """A local endpoint that fails if its outbox held a same-shard record."""

    def wait(self):
        reply = super().wait()
        card = self.card
        assert all(card.station_shard[r[4]] != card.shard for r in reply[0])
        return reply


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_same_shard_records_leave_the_window_schedule_unchanged(shards):
    launched = launch_parallel(
        _config(shards, kernels=4, machines=4), gauss_seidel_worker, args=(12, 2)
    )
    cluster = launched.cluster
    cards = cluster.network.cards
    cluster.engine = ShardEngine(
        [_OutboxCheckedShard(card) for card in cards],
        cards[0].station_shard,
        cards[0].lookahead,
    )
    launched.finish()
    stats = cluster.engine.stats
    assert {key: stats[key] for key in _GS_WINDOW_SCHEDULE} == _GS_WINDOW_SCHEDULE
    assert stats["crossings"] == _GS_CROSSINGS[shards]


# -- the lookahead bound at its exact boundary --------------------------------
def _two_station_fabric(n_shards):
    """Two stations on ``n_shards`` shard(s), raw callbacks attached."""
    cfg = FabricConfig(kind="switch", cut_through=False, forward_latency=0.0)
    plan = plan_shards(2, n_shards)
    sims = [Simulator() for _ in range(n_shards)]
    cards = [
        ShardSwitchCard(sims[s], s, plan.machine_shard, cfg)
        for s in range(n_shards)
    ]
    delivered = []
    for sid in (0, 1):
        card = cards[plan.machine_shard[sid]]
        card.attach(
            sid,
            lambda frame, c=card, s=sid: delivered.append((s, c.sim.now)),
        )
    engine = ShardEngine.in_process(cards)
    return sims, cards, engine, delivered


def _send_min_frame(sim, card):
    def sender():
        yield from card.send(EthernetFrame(src=0, dst=1, payload=b"", payload_bytes=0))

    sim.process(sender(), name="sender")


def test_frame_effect_exactly_at_horizon_is_not_lost():
    """Regression: a minimum frame sent at a window's start finishes its
    uplink at exactly that window's horizon (tx == lookahead), so its
    flush must be armed for the *next* window — dropping or early-running
    it is the classic off-by-one of half-open window processing."""
    sims, cards, engine, delivered = _two_station_fabric(2)
    lookahead = cards[0].lookahead
    assert lookahead == min_frame_time(cards[0].rate_bps)
    _send_min_frame(sims[0], cards[0])
    engine.run_all()
    assert len(delivered) == 1
    station, when = delivered[0]
    assert station == 1
    # store-and-forward, zero forward latency: downlink starts at uplink
    # done (== one lookahead == the emission window's horizon, exactly)
    # and the frame lands after its own serialisation plus propagation.
    expect = 2 * lookahead + cards[0].prop_delay
    assert when == pytest.approx(expect, rel=0, abs=1e-15)
    assert when >= lookahead  # never delivered inside the emission window
    assert engine.stats["crossings"] == 1


def test_flush_is_armed_at_the_exact_effect_time():
    """Regression: a card whose clock lags a record's effect time ``t``
    must arm the flush at exactly ``t``.  ``now + (t - now)`` is one ulp
    short for this pair, which once made the process backend's window
    start (computed from ``t``) differ from the inline engine's (read off
    the armed heap)."""
    now, t = 0.00034295854326924576, 0.0025133045160018546
    assert now + (t - now) != t
    sim = Simulator(start_time=now)
    card = ShardSwitchCard(sim, 0, (0, 0), FabricConfig(kind="switch"))
    frame = EthernetFrame(src=0, dst=1, payload=b"", payload_bytes=0)
    card.inbox.append((t, 0, 1, t, 1, frame))
    card.admit_pending()
    assert sim.peek() == t


def test_horizon_boundary_delivery_matches_single_shard():
    results = {}
    for n_shards in (1, 2):
        sims, cards, engine, delivered = _two_station_fabric(n_shards)
        _send_min_frame(sims[0], cards[0])
        engine.run_all()
        results[n_shards] = (
            delivered,
            sum(sim.events_processed for sim in sims),
        )
    assert results[2] == results[1]


# -- the partitioner ----------------------------------------------------------
def test_plan_contiguous_and_balanced():
    plan = plan_shards(8, 4)
    assert plan.machine_shard == (0, 0, 1, 1, 2, 2, 3, 3)
    assert plan.machines_of(2) == [4, 5]
    assert plan.shard_of_machine(7) == 3


def test_plan_weights_shift_the_cuts():
    plan = plan_shards(5, 2, weights=[4.0, 1.0, 1.0, 1.0, 1.0])
    assert plan.machine_shard == (0, 1, 1, 1, 1)


def test_plan_tail_shards_never_starve():
    # One huge machine at the end: earlier shards must still cut so every
    # shard gets at least one machine.
    plan = plan_shards(4, 2, weights=[1.0, 1.0, 1.0, 100.0])
    assert plan.machine_shard == (0, 0, 0, 1)
    plan = plan_shards(4, 4, weights=[100.0, 1.0, 1.0, 1.0])
    assert plan.machine_shard == (0, 1, 2, 3)


def test_plan_explicit_map_is_validated():
    plan = plan_shards(4, 2, machine_shard=[0, 0, 1, 1])
    assert plan.machine_shard == (0, 0, 1, 1)
    with pytest.raises(ConfigurationError):
        plan_shards(4, 2, machine_shard=[0, 0, 1])  # wrong length
    with pytest.raises(ConfigurationError):
        ShardPlan(n_shards=2, machine_shard=(0, 0, 0, 0))  # empty shard 1
    with pytest.raises(ConfigurationError):
        ShardPlan(n_shards=2, machine_shard=(0, 0, 2, 1))  # out of range


def test_plan_argument_validation():
    with pytest.raises(ConfigurationError):
        plan_shards(2, 4)  # more shards than machines
    with pytest.raises(ConfigurationError):
        plan_shards(4, 0)
    with pytest.raises(ConfigurationError):
        plan_shards(2, 2, weights=[1.0, 0.0])
    with pytest.raises(ConfigurationError):
        plan_shards(2, 2, weights=[1.0])


def test_plan_signature_identifies_the_plan():
    a = plan_shards(8, 4)
    assert a.signature() == plan_shards(8, 4).signature()
    assert a.signature() != plan_shards(8, 2).signature()
    assert a.signature() != plan_shards(
        8, 4, machine_shard=[0, 0, 0, 1, 1, 2, 2, 3]
    ).signature()


# -- configuration fences -----------------------------------------------------
def test_shards_require_the_switched_fabric():
    with pytest.raises(ConfigurationError, match="switched fabric"):
        ClusterConfig(n_processors=4, n_machines=4, shards=2)


def test_shards_reject_single_stream_features():
    from repro.replay import ReplayConfig
    from repro.resilience import ResilienceConfig

    # One case per entry of the fence table in ClusterConfig.__post_init__.
    for feature, value in (
        ("obs_trace", True),
        ("obs_metrics_interval", 0.5),
        ("sanitize", True),
        ("resilience", ResilienceConfig()),
        ("replay", ReplayConfig()),
    ):
        with pytest.raises(
            ConfigurationError, match=f"incompatible with {feature} "
        ):
            _config(2, kernels=4, machines=4, **{feature: value})
    # The per-message trace field is gone; obs spans are the one trace layer.
    with pytest.raises(TypeError):
        ClusterConfig(trace=True)


def test_shard_config_validation():
    with pytest.raises(ConfigurationError):
        _config(8, kernels=4, machines=4)  # more shards than machines
    with pytest.raises(ConfigurationError):
        _config(2, kernels=4, machines=4, shard_map=(0, 1))  # wrong length
    with pytest.raises(ConfigurationError):
        _config(2, kernels=4, machines=4, shard_workers="threads")
    with pytest.raises(ConfigurationError):
        ClusterConfig(n_processors=4, shard_map=(0, 0, 1, 1))  # map w/o shards


def test_burst_loss_rejected_under_shards():
    with pytest.raises(ConfigurationError, match="burst loss"):
        run_cluster_traffic(n_requests=10, shards=2, p_enter_bad=0.05)


# -- execution-model fences ---------------------------------------------------
def test_incremental_driving_raises_under_shards():
    launched = launch_parallel(
        _config(2, kernels=4, machines=4), gauss_seidel_worker, args=(8, 1)
    )
    with pytest.raises(DSEError, match="incremental"):
        launched.run_to(1.0)
    with pytest.raises(DSEError, match="incremental"):
        launched.step()
    assert launched.finish().elapsed > 0  # whole-run drain still works


def test_run_master_rejects_process_workers():
    def master(api):
        yield from api.sleep(0.0)

    with pytest.raises(DSEError, match="SPMD"):
        run_master(
            _config(2, kernels=4, machines=4, shard_workers="process"), master
        )


# -- cache keying and stats merge ---------------------------------------------
def test_cache_key_separates_shard_counts():
    base = cache_key("scale", {"n": 64}, "fp")
    sharded = cache_key("scale", {"n": 64}, "fp", shards={"shards": 4})
    other = cache_key("scale", {"n": 64}, "fp", shards={"shards": 2})
    assert len({base, sharded, other}) == 3
    assert sharded == cache_key("scale", {"n": 64}, "fp", shards={"shards": 4})


def test_merge_partial_stats_sums_and_maxes():
    merged = merge_partial_stats(
        [
            {"msgs_sent": 3, "max_load_average": 2.5, "bytes": 1.5},
            {"msgs_sent": 4, "max_load_average": 1.0, "bytes": 2.5},
        ]
    )
    assert merged["msgs_sent"] == 7
    assert isinstance(merged["msgs_sent"], int)  # int counters stay ints
    assert merged["max_load_average"] == 2.5  # extremes merge by max
    assert merged["bytes"] == 4.0
