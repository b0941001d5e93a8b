"""The multiprocess shard backend: one OS worker process per shard.

Each worker deterministically rebuilds the *whole* cluster from the config
(cheap relative to running it, and it makes every worker's world view
identical by construction), then serves window requests for its own shard
with that cluster's in-process endpoint
(:class:`repro.shard.engine.LocalShard`).  The parent simulates nothing:
it runs the one window driver, :class:`repro.shard.engine.ShardEngine`,
over :class:`PipeShard` proxies —

    round:   workers report (outbox records, next-event time, clock)
    parent:  the driver routes records, takes the window start ``W``
             from the reported next-event times and the routed records'
             effect times — exact without the records being admitted yet,
             because a card arms each flush at its record's absolute
             effect time — and sends each worker
             ("window", W + lookahead, records)
    worker:  admits the records, runs its loop to the horizon, replies

— so a worker executes the byte-identical per-window event schedule the
inline backend would, and ``shard_workers`` flips parallelism on and off
without touching a single simulated value.  Final statistics are merged
from per-shard additive slices (:func:`repro.shard.cluster.merge_partial_stats`);
the run outcome (per-rank returns, elapsed) comes from the worker owning
kernel 0, where the master driver ran.

Only SPMD entry points are supported: the worker callable and its args
ship to worker processes, and master closures over live parent state do
not survive that trip (``run_master`` raises before getting here).
"""

from __future__ import annotations

import multiprocessing
import traceback
from dataclasses import replace
from typing import Any, Callable, Generator, List, Optional

from ..dse.config import ClusterConfig
from ..errors import DSEError
from .cluster import merge_partial_stats, plan_for_config
from .engine import ShardEngine
from .fabric import min_frame_time

__all__ = ["PipeShard", "run_parallel_process"]


def _shard_worker(
    conn,
    shard: int,
    config: ClusterConfig,
    worker: Callable[..., Generator],
    args: tuple,
    args_of: Optional[Callable[[int], tuple]],
) -> None:
    """Worker-process main: rebuild, then serve the driver's requests.

    Every request is answered with ``("ok", reply)``: the endpoint's own
    reply after a window, and after finalize this shard's statistics
    slice, event count and (on kernel 0's shard) the run outcome.
    """
    try:
        from ..dse.runtime import launch_parallel

        launched = launch_parallel(config, worker, args, args_of)
        cluster = launched.cluster
        endpoint = cluster.engine.endpoints[shard]
        conn.send(("ok", endpoint.wait()))
        while True:
            op, *params = conn.recv()
            if op == "window":
                endpoint.window(*params)
                conn.send(("ok", endpoint.wait()))
                continue
            if op != "finalize":
                raise DSEError(f"unknown shard-protocol op {op!r}")
            endpoint.finalize(*params)
            owns_master = shard == cluster.plan.machine_shard[config.machine_of(0)]
            final = (
                cluster.partial_stats(shard),
                cluster.sims[shard].events_processed,
                launched._outcome if owns_master else None,
            )
            conn.send(("ok", final))
            return
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:
            pass  # the parent is gone: nobody to report to
    finally:
        conn.close()


class PipeShard:
    """Endpoint proxy: forwards driver requests to a shard worker process."""

    def __init__(self, ctx, shard: int, worker_args: tuple) -> None:
        self.shard = shard
        self.conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(
            target=_shard_worker,
            args=(child_conn, shard, *worker_args),
            name=f"repro-shard-{shard}",
        )
        self.proc.start()
        child_conn.close()

    def window(self, horizon: float, records: list) -> None:
        self.conn.send(("window", horizon, records))

    def finalize(self, end: float) -> None:
        self.conn.send(("finalize", end))

    def wait(self) -> Any:
        try:
            tag, reply = self.conn.recv()
        except EOFError:
            raise DSEError(f"shard worker {self.shard} exited mid-run") from None
        if tag == "error":
            raise DSEError(f"shard worker {self.shard} failed:\n{reply}")
        return reply

    def close(self) -> None:
        self.conn.close()
        self.proc.join(timeout=5)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join()


def run_parallel_process(
    config: ClusterConfig,
    worker: Callable[..., Generator],
    args: tuple = (),
    args_of: Optional[Callable[[int], tuple]] = None,
):
    """SPMD run with one OS process per shard; same results as inline."""
    from ..dse.runtime import RunResult

    plan = plan_for_config(config)
    # Workers must not recurse into this backend when they rebuild.
    worker_args = (replace(config, shard_workers="inline"), worker, args, args_of)
    ctx = multiprocessing.get_context()
    shards: List[PipeShard] = []
    try:
        for s in range(plan.n_shards):
            shards.append(PipeShard(ctx, s, worker_args))
        engine = ShardEngine(
            shards, plan.machine_shard, min_frame_time(config.fabric.rate_bps)
        )
        finals = engine.run_all()
    finally:
        for shard in shards:
            shard.close()
    partials, events, outcomes = zip(*finals)
    outcome = next((o for o in outcomes if o is not None), None)
    if outcome is None or "returns" not in outcome:
        raise DSEError("master did not complete (deadlock or early drain)")
    return RunResult(
        elapsed=outcome["elapsed"],
        returns=outcome["returns"][0],  # SPMD: rank -> value dict
        stats=merge_partial_stats(partials),
        sim_events=sum(events),
        config=config,
        cluster=None,
    )
