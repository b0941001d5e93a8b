"""Sharded parallel-in-time execution of a simulated cluster.

The package partitions a cluster's machines (with their kernels, NICs,
and switch ports) across shard event loops that advance concurrently
under conservative synchronisation, with ``--shards N`` byte-identical
for every N — see ``docs/sharding.md``.

* :mod:`~repro.shard.plan` — the topology-aware partitioner
* :mod:`~repro.shard.fabric` — per-shard switch cards + handoff records
* :mod:`~repro.shard.engine` — the one lookahead-windowed driver and the
  in-process shard endpoint
* :mod:`~repro.shard.cluster` — the :class:`ShardedCluster` wiring
* :mod:`~repro.shard.procpool` — the driver simulates shard 0 and one OS
  worker process per other shard serves a pipe endpoint
"""

from .cluster import ShardedCluster, merge_partial_stats, plan_for_config
from .engine import LocalShard, ShardEngine
from .fabric import ShardNetwork, ShardSwitchCard, build_shard_network, min_frame_time
from .plan import ShardPlan, plan_shards, weights_from_stats

__all__ = [
    "LocalShard",
    "ShardedCluster",
    "ShardEngine",
    "ShardNetwork",
    "ShardPlan",
    "ShardSwitchCard",
    "build_shard_network",
    "merge_partial_stats",
    "min_frame_time",
    "plan_for_config",
    "plan_shards",
    "weights_from_stats",
]
