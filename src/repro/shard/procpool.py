"""The multiprocess shard backend: the driver simulates shard 0, one OS
worker process simulates each other shard.

The parent forks its ``k - 1`` workers before it builds anything.  Each
side then deterministically builds the *whole* cluster from the config
(cheap relative to running it, and it makes every process's world view
identical by construction) and serves window requests for its own shard
with that cluster's in-process endpoint
(:class:`repro.shard.engine.LocalShard`).  The parent runs the one window
driver, :class:`repro.shard.engine.ShardEngine`, over its own shard-0
endpoint and one :class:`PipeShard` proxy per worker —

    round:   every shard reports (cross-shard records, records kept
             locally, next-event time, clock)
    parent:  the driver routes records, takes the window start ``W``
             from the reported next-event times and the routed records'
             effect times — exact without the records being admitted yet,
             because a card arms each flush at its record's absolute
             effect time — sends each worker
             ("window", W + lookahead, records), then runs shard 0's
             window itself while the workers run theirs
    worker:  admits the records, runs its loop to the horizon, replies

— one pipe round trip per worker per window, and every shard executes the
byte-identical per-window event schedule the inline backend would, so
``shard_workers`` flips parallelism on and off without touching a single
simulated value.  Final statistics are merged from per-shard additive
slices (:func:`repro.shard.cluster.merge_partial_stats`): the parent's own
shard-0 slice and one from each worker.  The run outcome (per-rank
returns, elapsed) comes from whichever side owns kernel 0, where the
master driver ran: the parent, unless an explicit ``shard_map`` moves
machine 0 to a worker's shard.

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
    slice, event count and run outcome (empty unless this shard owns
    kernel 0).
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
            final = (
                cluster.partial_stats(shard),
                cluster.sims[shard].events_processed,
                launched._outcome,
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

    def close(self, abort: bool = False) -> None:
        """Join the worker; ``abort`` stops it first (a failed run leaves
        workers mid-window or blocked on a request that never comes)."""
        self.conn.close()
        if abort:
            self.proc.terminate()
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
    """SPMD run with shard 0 in this process and one OS worker process per
    other shard; same results as inline."""
    from ..dse.runtime import RunResult, launch_parallel

    plan = plan_for_config(config)
    # Neither side may recurse into this backend when it builds.
    inline = replace(config, shard_workers="inline")
    worker_args = (inline, worker, args, args_of)
    ctx = multiprocessing.get_context()
    remotes: List[PipeShard] = []
    finished = False
    try:
        # Fork before building, so no worker inherits the parent's cluster.
        for s in range(1, plan.n_shards):
            remotes.append(PipeShard(ctx, s, worker_args))
        launched = launch_parallel(inline, worker, args, args_of)
        cluster = launched.cluster
        engine = ShardEngine(
            [cluster.engine.endpoints[0], *remotes],
            plan.machine_shard,
            min_frame_time(config.fabric.rate_bps),
        )
        finals = engine.run_all()
        finished = True
    finally:
        for shard in remotes:
            shard.close(abort=not finished)
    owner = plan.machine_shard[config.machine_of(0)]
    outcome = launched._outcome if owner == 0 else finals[owner][2]
    if "returns" not in outcome:
        raise DSEError("master did not complete (deadlock or early drain)")
    partials = [cluster.partial_stats(0)] + [final[0] for final in finals[1:]]
    events = cluster.sims[0].events_processed + sum(final[1] for final in finals[1:])
    return RunResult(
        elapsed=outcome["elapsed"],
        returns=outcome["returns"][0],  # SPMD: rank -> value dict
        stats=merge_partial_stats(partials),
        sim_events=events,
        config=config,
        cluster=None,
    )
