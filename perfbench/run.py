"""Host-time benchmark of the DSE simulator.

    python3 perfbench/run.py --workload paper_figs --seed 0 --seconds 20 --trace 0

Measures what the simulator costs to run, not what it simulates.  Every
repetition runs in a fresh process (``child.py``); repetitions follow one
another until ``--seconds`` have passed, and each metric is the median over
them.  Simulated outputs are checked on every operation against the
committed references in ``refs/`` (at the seed they were recorded with) or,
for any other seed, against seed-independent invariants; repetitions must
also agree with each other.  A failed check fails the operation.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the workload
once untraced and once under ``cProfile`` and prints the per-layer metrics.
``--record`` writes the reference for ``--seed`` instead of measuring.

The last line of standard output is the result object; the line before it
is the run's provenance.  See README.md for what each workload is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from layers import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs"

WORKLOADS = ("paper_figs", "scale64", "scale64_sharded", "traffic_ps")
#: the single-loop twin whose simulated fields (all but ``events``) the
#: sharded run must match
TWIN = {"scale64_sharded": "scale64"}
#: profiled in place of the workload (see workloads.WORKLOADS)
PROFILED_AS = {"scale64_sharded": "scale64_sharded_inline"}
SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The program could not be run or measured."""


def spawn(workload: str, seed: int, mode: str) -> Dict[str, Any]:
    """Run ``child.py`` once and return its report plus set-up times."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), workload, str(seed), mode],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} ({mode}) ran over {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} ({mode}) exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["t_ready"] - t_spawn
    report["import_s"] = report["t_imported"] - t_spawn
    report["build_s"] = report["t_ready"] - report["t_imported"]
    if "t_done" in report:
        report["wall_s"] = report["t_done"] - report["t_ready"]
    return report


def load_reference(workload: str, seed: int) -> Optional[List[dict]]:
    """The committed fingerprints for ``workload`` if recorded at ``seed``."""
    path = REFS / f"{workload}.json"
    if not path.is_file():
        return None
    ref = json.loads(path.read_text())
    return ref["fingerprints"] if ref["seed"] == seed else None


def _without_events(fingerprint: dict) -> dict:
    return {k: v for k, v in fingerprint.items() if k != "events"}


def failed_ops(reports: List[dict], reference: Optional[List[dict]], twin: Optional[dict]) -> int:
    """Operations, over all repetitions, whose simulated output fails a check.

    Checks: the child's own invariants, equality with the reference (or, at
    a held-out seed, the twin's fields other than ``events``), and equality
    with the first repetition."""
    first = reports[0]["fingerprints"]
    failed = 0
    for report in reports:
        for i, (fp, problems) in enumerate(zip(report["fingerprints"], report["op_failures"])):
            bad = bool(problems) or fp != first[i]
            if reference is not None:
                bad = bad or fp != reference[i]
            if twin is not None:
                bad = bad or _without_events(fp) != _without_events(twin["fingerprints"][i])
            failed += bad
    return failed


def _median(reports: List[dict], key: str) -> float:
    return statistics.median(r[key] for r in reports)


def measure(workload: str, seed: int, seconds: float) -> tuple:
    reports = []
    began = time.monotonic()
    while not reports or time.monotonic() - began < seconds:
        reports.append(spawn(workload, seed, "plain"))
    setups = [r["setup_s"] for r in reports]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "setup")["setup_s"])
    return reports, {
        "wall_s": (_median(reports, "wall_s"), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "cpu_s": (_median(reports, "cpu_s"), "s"),
        "peak_rss_mb": (_median(reports, "peak_rss_mb"), "MB"),
    }


def _sum(stats: List[dict], key: str) -> float:
    return sum(s.get(key, 0) for s in stats)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def trace(workload: str, seed: int) -> tuple:
    """One untraced and one profiled run; per-layer metrics."""
    untraced = spawn(workload, seed, "ipc" if workload in PROFILED_AS else "plain")
    profiled_as = PROFILED_AS.get(workload, workload)
    baseline = untraced if profiled_as == workload else spawn(profiled_as, seed, "plain")
    profiled = spawn(profiled_as, seed, "profile")

    fps = untraced["fingerprints"]
    stats = [fp["stats"] for fp in fps]
    events = sum(fp.get("events", fp.get("sim_events", 0)) for fp in fps)
    layers = profiled["layers"]
    shard = {k: sum(c.get(f"shard.{k}", 0) for c in profiled["counters"]) for k in ("windows", "handoffs", "crossings")}
    local = _sum(stats, "gm.local_reads") + _sum(stats, "gm.local_writes")
    remote = _sum(stats, "gm.remote_reads") + _sum(stats, "gm.remote_writes")
    metrics = {f"{layer}.self_s": (layers[layer], "s") for layer in LAYERS}
    metrics.update({
        "trace.total_s": (profiled["profile_total_s"], "s"),
        "trace.overhead": (profiled["wall_s"] / baseline["wall_s"], "x"),
        "setup.import_s": (untraced["import_s"], "s"),
        "setup.build_s": (untraced["build_s"], "s"),
        "sim.events": (events, "count"),
        "sim.cancelled": (sum(c.get("cancelled", 0) for c in profiled["counters"]), "count"),
        "sim.ns_per_event": (_ratio(layers["sim"] * 1e9, events), "ns"),
        "osmodel.bursts": (profiled["bursts"], "count"),
        "osmodel.max_load": (max(s.get("max_load_average", 0.0) for s in stats), "load"),
        "network.frames": (_sum(stats, "net.frames_sent"), "count"),
        "network.collisions": (_sum(stats, "net.collisions"), "count"),
        "network.collision_rate": (_ratio(_sum(stats, "net.collisions"), _sum(stats, "net.frames_sent")), "ratio"),
        "protocol.retransmissions": (_sum(stats, "net.retransmissions"), "count"),
        "protocol.timeouts": (_sum(stats, "net.timeouts"), "count"),
        "dse.msgs": (_sum(stats, "msgs_sent"), "count"),
        "dse.remote_reads": (_sum(stats, "gm.remote_reads"), "count"),
        "dse.remote_writes": (_sum(stats, "gm.remote_writes"), "count"),
        "dse.combined_reads": (_sum(stats, "gm.combined_reads"), "count"),
        "dse.batch_flushes": (_sum(stats, "gm.batch_flushes"), "count"),
        "dse.local_ratio": (_ratio(local, local + remote), "ratio"),
        "traffic.requests": (_sum(stats, "requests_offered"), "count"),
        "traffic.rejected": (_sum(stats, "requests_rejected"), "count"),
        "traffic.clone_waste": (_ratio(_sum(stats, "clones_cancelled"), _sum(stats, "clones_dispatched")), "ratio"),
        "shard.windows": (shard["windows"], "count"),
        "shard.handoffs": (shard["handoffs"], "count"),
        "shard.crossings": (shard["crossings"], "count"),
        "shard.events_per_window": (_ratio(events, shard["windows"]), "count"),
        "shard.barrier_wait_s": (untraced["pipe"].get("recv", 0.0), "s"),
        "shard.ipc_send_s": (untraced["pipe"].get("send", 0.0), "s"),
        "shard.worker_cpu_s": (untraced["children_cpu_s"], "s"),
    })
    # Tracing must not perturb the simulation, nor the inline backend
    # differ from the process backend.
    for other in (baseline, profiled):
        other["op_failures"] = [
            problems + (["differs from the untraced run"] if fp != ref else [])
            for fp, problems, ref in zip(other["fingerprints"], other["op_failures"], fps)
        ]
    reports = [untraced] + ([baseline] if baseline is not untraced else []) + [profiled]
    return reports, metrics


def record(workload: str, seed: int) -> int:
    report = spawn(workload, seed, "plain")
    problems = [p for ops in report["op_failures"] for p in ops]
    if problems:
        raise BenchError(f"{workload} fails its invariants: {problems}")
    if workload in TWIN:
        twin = spawn(TWIN[workload], seed, "plain")
        if list(map(_without_events, twin["fingerprints"])) != list(map(_without_events, report["fingerprints"])):
            raise BenchError(f"{workload} and {TWIN[workload]} differ in simulated fields")
    REFS.mkdir(exist_ok=True)
    payload = {
        "workload": workload,
        "seed": seed,
        "events": sum(fp.get("events", fp.get("sim_events", 0)) for fp in report["fingerprints"]),
        "inputs": report["provenance"]["inputs"],
        "fingerprints": report["fingerprints"],
    }
    (REFS / f"{workload}.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFS / f'{workload}.json'}: {len(report['fingerprints'])} operations, {payload['events']} events")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="write refs/WORKLOAD.json at --seed")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.record:
            return record(args.workload, args.seed)
        if args.trace:
            reports, metrics = trace(args.workload, args.seed)
        else:
            reports, metrics = measure(args.workload, args.seed, args.seconds)
        reference = load_reference(args.workload, args.seed)
        twin = None if reference is not None or args.workload not in TWIN else spawn(TWIN[args.workload], args.seed, "plain")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    for i, report in enumerate(reports):
        print(json.dumps({"repetition": i, **{k: report.get(k) for k in ("workload", "mode", "setup_s", "wall_s", "cpu_s", "peak_rss_mb")}}))
    attempted = sum(len(r["fingerprints"]) for r in reports)
    failed = failed_ops(reports, reference, twin)
    if not args.trace:
        metrics["pass_rate"] = (1 - failed / attempted, "ratio")
    print(json.dumps({"provenance": {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "repetitions": len(reports),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "checked_against": "reference" if reference is not None else "invariants",
        **reports[0]["provenance"],
    }}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
