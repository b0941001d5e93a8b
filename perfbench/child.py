"""One repetition of a workload, in a fresh process.

    python3 perfbench/child.py WORKLOAD SEED MODE

``run.py`` starts this script once per repetition so that every
repetition pays the same interpreter start, import and build cost (that is
set-up) and starts from the same memory state.  Modes:

* ``plain``: run the workload untraced (the end-to-end measurement);
* ``profile``: the same under ``cProfile``, reporting self time per layer;
* ``setup``: stop after building the first operation (a set-up sample);
* ``ipc``: ``plain`` with timers on the shard backend's pipe ends
  (``multiprocessing.connection.Connection.send``/``recv``), for the
  parent's barrier wait and send time.

The last line of standard output is one JSON object.  Times are
``time.monotonic()`` stamps, which every process on the host shares, so
the parent subtracts its own spawn stamp to get set-up time.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPRO_SRC = HERE.parent / "src"


def _usage():
    self_, kids = (resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return self_.ru_utime + self_.ru_stime, kids.ru_utime + kids.ru_stime, max(self_.ru_maxrss, kids.ru_maxrss)


def _time_pipe_ends(totals: dict) -> None:
    """Accumulate wall time spent in ``Connection.send`` and ``recv``."""
    from multiprocessing.connection import Connection

    def timed(name, method):
        def wrapper(self, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return method(self, *args, **kwargs)
            finally:
                totals[name] += time.perf_counter() - t0

        return wrapper

    for name in ("send", "recv"):
        totals[name] = 0.0
        setattr(Connection, name, timed(name, getattr(Connection, name)))


def _counters(handle) -> dict:
    """Engine counters the fingerprint does not carry."""
    if handle is None:
        return {}
    if hasattr(handle, "total_cancelled"):  # a finished cluster
        out = {"cancelled": handle.total_cancelled()}
        engine = getattr(handle, "engine", None)
        if engine is not None:  # sharded, inline backend
            out.update({f"shard.{k}": v for k, v in engine.stats.items()})
        return out
    return {"cancelled": handle.sim.events_cancelled}  # a traffic engine


def main(argv) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    sys.path.insert(0, str(REPRO_SRC))
    sys.path.insert(0, str(HERE))
    import workloads  # imports repro from REPRO_SRC, first on the path
    from repro.experiments.parallel import code_fingerprint

    t_imported = time.monotonic()

    pipe = {}
    if mode == "ipc":
        _time_pipe_ends(pipe)
    profiler = cProfile.Profile() if mode == "profile" else None
    ops = workloads.WORKLOADS[workload](seed)
    run_first = ops[0].prepare()
    cpu0, kids0, _ = _usage()
    t_ready = time.monotonic()
    out = {"workload": workload, "mode": mode, "t_imported": t_imported, "t_ready": t_ready}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    fingerprints, counters = [], []
    if profiler is not None:
        profiler.enable()
    for i, op in enumerate(ops):
        run = run_first if i == 0 else op.prepare()
        fingerprint, handle = run()
        fingerprints.append(fingerprint)
        counters.append(_counters(handle))
        del run, handle
    if profiler is not None:
        profiler.disable()
    t_done = time.monotonic()
    cpu1, kids1, rss_kb = _usage()

    out.update(
        t_done=t_done,
        cpu_s=(cpu1 - cpu0) + (kids1 - kids0),
        children_cpu_s=kids1 - kids0,
        peak_rss_mb=rss_kb / 1024.0,
        fingerprints=fingerprints,
        counters=counters,
        pipe=pipe,
    )
    out["op_failures"] = workloads.op_failures(workload, seed, ops, fingerprints)
    out["provenance"] = {
        "code_fingerprint": code_fingerprint(),
        "program_seeds": workloads.seed_inputs(seed),
        "inputs": workloads.INPUTS[workload],
    }
    if profiler is not None:
        import layers

        stats = pstats.Stats(profiler)
        out["layers"] = layers.layer_self_times(stats, (REPRO_SRC / "repro").resolve())
        out["profile_total_s"] = stats.total_tt
        out["bursts"] = layers.call_count(stats, "osmodel/scheduler.py", "execute")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
