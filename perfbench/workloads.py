"""The benchmark's workloads: which simulations one repetition runs.

Every workload is a list of *operations*.  An operation is one cluster run
(``run_parallel``/``launch_parallel``) or one traffic run
(``build_sweep_config`` + the engine behind ``run_traffic``), and it returns
a *fingerprint*: the simulated fields a host-time optimisation must leave
exactly equal.  Host time is measured around the operations by
:mod:`child`; nothing here reads a clock.

The benchmark seed ``s`` reaches the program only through the generated
inputs: ``ClusterConfig(seed=1999 + s)``, the Gauss-Seidel system seed
``7 + s``, the DCT image seed ``11 + s`` and the traffic seed ``7 + s``.
Seed 0 therefore reproduces the repository's own defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.apps.dct2 import dct2_worker
from repro.apps.gauss_seidel import gauss_seidel_worker
from repro.apps.knights_tour import knights_tour_worker
from repro.apps.othello import othello_worker
from repro.dse.config import ClusterConfig
from repro.dse.runtime import launch_parallel, run_parallel
from repro.experiments.checks import check_figure
from repro.experiments.figures import (
    DCT_BLOCKS,
    GS_DIMENSIONS_FAST,
    KT_JOBS,
    OTHELLO_DEPTHS_FAST,
    FigureData,
)
from repro.hardware.platforms import get_platform
from repro.network.topology import FabricConfig
from repro.traffic.cli import build_sweep_config
from repro.traffic.engine import TrafficEngine

__all__ = ["WORKLOADS", "INPUTS", "Op", "seed_inputs", "op_failures"]

#: the fast figure grid's processor counts (``dse-experiments all --fast``)
PAPER_PROCS = (1, 2, 4, 6, 8, 12)
SCALE_NODES = 64
SCALE_SIZE = 256
TRAFFIC_POINT = ("clone-2", 0.75, 200_000)


def seed_inputs(seed: int) -> Dict[str, int]:
    """The program-side seeds derived from the benchmark seed."""
    return {"cluster": 1999 + seed, "gauss_seidel": 7 + seed, "dct": 11 + seed, "traffic": 7 + seed}


@dataclass
class Op:
    """One operation: ``prepare()`` builds everything up to the first
    simulated event and returns a ``run()`` that simulates and returns
    ``(fingerprint, handle)``.  The handle is the finished cluster or
    traffic engine, kept only long enough for the traced run's counters."""

    label: str
    prepare: Callable[[], Callable[[], Tuple[Dict[str, Any], Any]]]


def _cluster_fingerprint(result) -> Dict[str, Any]:
    elapsed = max(out["t1"] - out["t0"] for out in result.returns.values())
    return {
        "elapsed": elapsed,
        "msgs": int(result.stats["msgs_sent"]),
        "stats": dict(result.stats),
        "events": result.sim_events,
    }


def _cluster_op(label: str, config: ClusterConfig, worker, args: tuple) -> Op:
    def prepare():
        if config.shards and config.shard_workers == "process":
            # The process backend builds its shards inside its workers, so
            # set-up ends at the call.
            def run_process():
                result = run_parallel(config, worker, args=args)
                return _cluster_fingerprint(result), None

            return run_process
        launched = launch_parallel(config, worker, args=args)

        def run_inline():
            result = launched.finish()
            return _cluster_fingerprint(result), result.cluster

        return run_inline

    return Op(label, prepare)


def _paper_point(seeds: Dict[str, int], worker, args: tuple, procs: int, label: str) -> Op:
    # The configuration ``experiments.harness.measure_point`` builds: one
    # machine for the one-processor baseline, six SunOS machines otherwise.
    kwargs: Dict[str, Any] = {
        "platform": get_platform("sunos"),
        "n_processors": procs,
        "seed": seeds["cluster"],
    }
    if procs == 1:
        kwargs["n_machines"] = 1
    return _cluster_op(f"{label}@p{procs}", ClusterConfig(**kwargs), worker, args)


def _paper_series(seeds: Dict[str, int]) -> List[Tuple[str, str, Any, tuple]]:
    """(figure id, series name, worker, args) of the fast SunOS grid."""
    series = []
    for n in GS_DIMENSIONS_FAST:
        series.append(("fig5", f"N={n}", gauss_seidel_worker, (n, 5, seeds["gauss_seidel"], False)))
    for b in DCT_BLOCKS:
        series.append(("fig11", f"{b}x{b}", dct2_worker, (64, b, 0.25, seeds["dct"], False)))
    for depth in OTHELLO_DEPTHS_FAST:
        series.append(("fig16", f"Depth{depth}", othello_worker, (depth,)))
    for jobs in KT_JOBS:
        series.append(("fig19", f"{jobs}_Jobs", knights_tour_worker, (jobs,)))
    return series


def paper_figs(seed: int) -> List[Op]:
    seeds = seed_inputs(seed)
    return [
        _paper_point(seeds, worker, args, p, f"{fig}:{name}")
        for fig, name, worker, args in _paper_series(seeds)
        for p in PAPER_PROCS
    ]


def scale_config(seed: int, shards: int = 0, shard_workers: str = "inline") -> ClusterConfig:
    """``dse-experiments scale --nodes 64``: switched fabric, batched DSM."""
    return ClusterConfig(
        platform=get_platform("linux"),
        n_processors=SCALE_NODES,
        n_machines=SCALE_NODES,
        fabric=FabricConfig(kind="switch"),
        gmem_batching=True,
        seed=seed_inputs(seed)["cluster"],
        shards=shards,
        shard_workers=shard_workers,
    )


def _scale_args(seed: int) -> tuple:
    return (SCALE_SIZE, 2, seed_inputs(seed)["gauss_seidel"], False)


def scale64(seed: int) -> List[Op]:
    return [_cluster_op("gauss-seidel@64", scale_config(seed), gauss_seidel_worker, _scale_args(seed))]


def scale64_sharded(seed: int, shard_workers: str = "process") -> List[Op]:
    config = scale_config(seed, shards=2, shard_workers=shard_workers)
    return [_cluster_op("gauss-seidel@64/2shards", config, gauss_seidel_worker, _scale_args(seed))]


def traffic_ps(seed: int) -> List[Op]:
    policy, rho, requests = TRAFFIC_POINT
    config = build_sweep_config(policy, rho, requests, seed=seed_inputs(seed)["traffic"])

    def prepare():
        # run_traffic(config) is TrafficEngine(config).run(); building the
        # engine first puts its construction in set-up.
        engine = TrafficEngine(config)

        def run():
            return engine.run().canonical(), engine

        return run

    return [Op(f"traffic:{policy}@{rho}", prepare)]


WORKLOADS: Dict[str, Callable[[int], List[Op]]] = {
    "paper_figs": paper_figs,
    "scale64": scale64,
    "scale64_sharded": scale64_sharded,
    "traffic_ps": traffic_ps,
    # Profiled in place of scale64_sharded: the process backend simulates
    # in its workers, out of the profiler's sight, while the inline backend
    # runs the identical per-window schedule in one process.
    "scale64_sharded_inline": lambda seed: scale64_sharded(seed, "inline"),
}

#: workload -> the inputs stamped into every result's provenance
INPUTS: Dict[str, Dict[str, Any]] = {
    "paper_figs": {
        "platform": "sunos",
        "procs": list(PAPER_PROCS),
        "gauss_seidel_n": list(GS_DIMENSIONS_FAST),
        "gauss_seidel_sweeps": 5,
        "dct_image": 64,
        "dct_blocks": list(DCT_BLOCKS),
        "othello_depths": list(OTHELLO_DEPTHS_FAST),
        "knights_tour_jobs": list(KT_JOBS),
        "fabric": "ethernet",
    },
    "scale64": {
        "platform": "linux", "nodes": SCALE_NODES, "gauss_seidel_n": SCALE_SIZE,
        "sweeps": 2, "fabric": "switch", "gmem_batching": True, "shards": 0,
    },
    "scale64_sharded": {
        "platform": "linux", "nodes": SCALE_NODES, "gauss_seidel_n": SCALE_SIZE,
        "sweeps": 2, "fabric": "switch", "gmem_batching": True, "shards": 2,
        "shard_workers": "process",
    },
    "traffic_ps": {
        "policy": TRAFFIC_POINT[0], "rho": TRAFFIC_POINT[1],
        "requests": TRAFFIC_POINT[2], "servers": 8,
    },
}

INPUTS["scale64_sharded_inline"] = dict(INPUTS["scale64_sharded"], shard_workers="inline")


def figure_failures(seed: int, fingerprints: List[Dict[str, Any]]) -> List[Tuple[str, str]]:
    """The paper's shape checks over one ``paper_figs`` repetition:
    ``(figure id, check)`` for every check that fails."""
    figures: Dict[str, FigureData] = {}
    it = iter(fingerprints)
    for fig, name, _worker, _args in _paper_series(seed_inputs(seed)):
        data = figures.setdefault(fig, FigureData(fig, fig, "processors", list(PAPER_PROCS)))
        times = [next(it)["elapsed"] for _ in PAPER_PROCS]
        # fig16 plots Othello speed-up; fig19 plots Knight's Tour time;
        # fig5/fig11 are the speed-up variants of the time figures.
        data.series[name] = [times[0] / t for t in times] if fig == "fig16" else times
    figures["fig5"] = figures["fig5"].speedup_variant("fig5", "fig5")
    figures["fig11"] = figures["fig11"].speedup_variant("fig11", "fig11")
    return [
        (fig, name)
        for fig in ("fig5", "fig11", "fig16", "fig19")
        for name, ok in check_figure(figures[fig])
        if not ok
    ]


def _invariant_failures(fingerprint: Dict[str, Any]) -> List[str]:
    stats = fingerprint["stats"]
    if "requests_offered" not in stats:  # a cluster run
        return [] if fingerprint["elapsed"] > 0 and fingerprint["events"] > 0 else ["empty run"]
    failures = []
    if stats["requests_offered"] != stats["requests_admitted"] + stats["requests_rejected"]:
        failures.append("requests_offered != requests_admitted + requests_rejected")
    if stats["requests_admitted"] != stats["requests_completed"]:
        failures.append("requests_admitted != requests_completed")
    return failures


def op_failures(workload: str, seed: int, ops: List[Op], fingerprints: List[Dict[str, Any]]) -> List[List[str]]:
    """Seed-independent checks, per operation: the names of those that fail.

    A failing figure shape check fails every operation of that figure."""
    out = [_invariant_failures(fp) for fp in fingerprints]
    if workload == "paper_figs":
        for fig, check in figure_failures(seed, fingerprints):
            for i, op in enumerate(ops):
                if op.label.startswith(f"{fig}:"):
                    out[i].append(f"{fig}: {check}")
    return out
