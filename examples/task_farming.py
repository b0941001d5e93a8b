#!/usr/bin/env python
"""Task farming, transparent remote execution, and message timelines.

Three library features beyond the paper's four applications:

* ``farm`` / ``farm_dynamic`` — PVM-style parallel map over the kernels;
* ``remote_run`` — run a task wherever the SSI layer decides (least-loaded
  node), result returned transparently;
* message tracing — an ASCII per-kernel activity timeline of the run,
  read from the obs trace (``obs_trace=True``).

Run:  python examples/task_farming.py
"""

from repro.dse import Cluster, ClusterConfig, ParallelAPI, farm_dynamic
from repro.experiments import message_census, render_timeline
from repro.hardware import get_platform
from repro.ssi import remote_run
from repro.util import fmt_time


def simulate_option_price(api, strike):
    """A toy compute task: fixed-work 'Monte Carlo' pricing of one strike."""
    yield from api.compute_seconds(0.004)
    return round(100.0 / strike, 4)


def main():
    config = ClusterConfig(
        platform=get_platform("aix"), n_processors=5, n_machines=5, obs_trace=True
    )
    cluster = Cluster(config)
    out = {}

    def driver():
        api = ParallelAPI(cluster.kernel(0), 0)
        start = api.now

        # 1. Farm 20 independent pricing tasks across the 5 kernels,
        #    at most 2 in flight per kernel.
        strikes = [80 + 2 * i for i in range(20)]
        prices = yield from farm_dynamic(api, simulate_option_price, strikes)
        out["prices"] = dict(zip(strikes, prices))

        # 2. Run one follow-up task wherever the cluster is idlest.
        value, = [
            (yield from remote_run(api, simulate_option_price, (100,)))
        ]
        out["followup"] = value
        out["elapsed"] = api.now - start
        yield from cluster.shutdown_from(0)

    cluster.sim.process(driver())
    cluster.sim.run_all()

    print(f"20 farmed tasks + 1 remote task in {fmt_time(out['elapsed'])} "
          f"(vs {fmt_time(21 * 0.004)} sequential)\n")
    print("sample results:", dict(list(out["prices"].items())[:4]), "…\n")
    print(render_timeline(cluster.obs, width=60))
    print()
    print(message_census(cluster.obs))


if __name__ == "__main__":
    main()
