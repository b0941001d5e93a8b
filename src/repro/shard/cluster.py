"""A DSE cluster distributed across shard event loops.

:class:`ShardedCluster` is a :class:`repro.dse.cluster.Cluster` whose
machines live on ``config.shards`` concurrently advancing simulators
instead of one.  Everything above the event loop — machines, transports,
kernels, routes, global memory — is wired by the base class verbatim; the
overrides below only decide *which* simulator each machine gets and swap
the monolithic fabric for per-shard switch cards joined by handoff queues
(:mod:`repro.shard.fabric`).

The partition comes from :func:`repro.shard.plan.plan_shards`, weighted by
kernels-per-machine (the virtual-cluster doubling), unless the config
carries an explicit ``shard_map`` — the hook for profile-guided maps built
with :func:`repro.shard.plan.weights_from_stats` from a pilot run's
per-machine event counts.

``stats_snapshot`` keeps the exact key set of the single-loop cluster
(the sanitizer/resilience/replay sections are absent because config
validation forbids those layers under sharding).  It is the merge of one
:func:`repro.dse.cluster.slice_stats` slice per shard
(:meth:`partial_stats`), the same slices the process backend's workers
report from their own shard's live counters; :func:`merge_partial_stats`
recombines them — integer-valued counters sum exactly in floats, and the
two rate/max keys merge by ``max``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from ..dse.cluster import Cluster, slice_stats
from ..sim.core import Simulator
from .engine import ShardEngine
from .fabric import build_shard_network
from .plan import ShardPlan, plan_shards

__all__ = ["ShardedCluster", "merge_partial_stats", "plan_for_config"]

#: snapshot keys that merge by max, not sum, across shard partials
_MAX_KEYS = frozenset({"max_load_average", "net.collision_rate"})


def plan_for_config(config) -> ShardPlan:
    """The shard plan a :class:`ShardedCluster` built from ``config`` uses.

    Deterministic in the config alone, so the process backend's parent and
    every worker independently compute the identical plan."""
    n_machines = config.machines_used
    weights = [float(len(config.kernels_on(m))) for m in range(n_machines)]
    return plan_shards(
        n_machines,
        config.shards,
        weights=weights,
        machine_shard=config.shard_map,
    )


class ShardedCluster(Cluster):
    """One simulated DSE cluster, partitioned over shard event loops."""

    is_sharded = True

    # -- construction hooks --------------------------------------------------
    def _init_sims(self, start_time: float) -> None:
        self.plan: ShardPlan = plan_for_config(self.config)
        self.sims: List[Simulator] = [
            Simulator(start_time=start_time) for _ in range(self.plan.n_shards)
        ]
        self.sim = self.sims[0]

    def _machine_sim(self, machine_id: int) -> Simulator:
        return self.sims[self.plan.machine_shard[machine_id]]

    def _build_network(self, n_machines: int):
        return build_shard_network(
            self.sims, self.plan, n_machines, self.config.fabric
        )

    def _post_build(self) -> None:
        self.engine = ShardEngine.in_process(self.network.cards)

    # -- execution -----------------------------------------------------------
    def run_all(self) -> None:
        self.engine.run_all()

    # -- statistics ----------------------------------------------------------
    def partial_stats(self, shard: int) -> Dict[str, float]:
        """This shard's additive slice of :meth:`stats_snapshot`."""
        config = self.config
        machine_shard = self.plan.machine_shard
        machines = [self.machines[m] for m in self.plan.machines_of(shard)]
        kernels = [
            kernel
            for kernel in self.kernels
            if machine_shard[config.machine_of(kernel.kernel_id)] == shard
        ]
        return slice_stats(self.network.cards[shard], machines, kernels)

    def stats_snapshot(self) -> Dict[str, float]:
        return merge_partial_stats(
            self.partial_stats(shard) for shard in range(self.plan.n_shards)
        )


def merge_partial_stats(partials: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """Recombine per-shard :meth:`ShardedCluster.partial_stats` slices."""
    out: Dict[str, float] = {}
    for partial in partials:
        for key, value in partial.items():
            if key in _MAX_KEYS:
                out[key] = max(out[key], value) if key in out else value
            else:
                # ``0 + value`` keeps each key's type (int counters stay
                # int, float-wrapped transport sums stay float) so merged
                # snapshots serialise identically to inline ones.
                out[key] = out.get(key, 0) + value
    return out
