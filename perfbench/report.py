"""Print the layer-share table of README.md from fresh traced runs.

    python3 perfbench/report.py [--seed 0]

Runs ``run.py --trace 1`` on every workload and prints, as a Markdown
table, each layer's share of the profiled self time, the profiled total
and the tracing overhead (profiled wall time / untraced wall time).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import LAYERS, WORKLOADS  # noqa: E402


def traced_metrics(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: simulated outputs failed their checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    runs = {w: traced_metrics(w, args.seed) for w in WORKLOADS}
    print(f"Seed {args.seed}; {len(os.sched_getaffinity(0))} cores, "
          f"{platform.machine()}, Python {platform.python_version()}.\n")
    print("| layer | " + " | ".join(WORKLOADS) + " |")
    print("|---|" + "---:|" * len(WORKLOADS))
    for layer in LAYERS:
        shares = [100 * m[f"{layer}.self_s"] / m["trace.total_s"] for m in runs.values()]
        print(f"| {layer} | " + " | ".join(f"{s:.1f}%" for s in shares) + " |")
    print("| profiled self time | " + " | ".join(f"{m['trace.total_s']:.1f} s" for m in runs.values()) + " |")
    print("| tracing overhead | " + " | ".join(f"{m['trace.overhead']:.2f}x" for m in runs.values()) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
