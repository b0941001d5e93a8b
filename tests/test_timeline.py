"""Tests for the message timeline, census and event log, which read the
``msg.send``/``msg.recv`` instants of the obs span trace."""

from collections import Counter

import pytest

from repro.dse import ClusterConfig, run_parallel
from repro.experiments import event_log, message_census, render_timeline
from repro.hardware import get_platform
from repro.obs import SpanRecorder


def traced_run(p=4, obs_trace=True, **kwargs):
    def worker(api):
        yield from api.gm_write_scalar(api.rank, 1.0)
        yield from api.barrier("b")
        yield from api.gm_read(0, api.size)
        yield from api.barrier("c")
        return True

    config = ClusterConfig(
        platform=get_platform("linux"), n_processors=p, obs_trace=obs_trace,
        **kwargs,
    )
    return run_parallel(config, worker)


def _marks(res, name):
    return res.cluster.obs.by_name(name)


# The renderers' output for traced_run at p=4 and p=6, pinned exactly: the
# same text the retired per-message trace layer produced for the same runs.
TIMELINE = {
    4: (
        "timeline 0s .. 0.009468s (61 events, peak 3/cell)\n"
        "    k0 |=   =#   =@   =#  ## ###==#== =#== =  = |\n"
        "    k1 |  @    =            =  =    =     #     |\n"
        "    k2 |       @     =      =   =    =       #  |\n"
        "    k3 |            @    =   =   =   =         #|"
    ),
    6: (
        "timeline 0s .. 0.01552s (101 events, peak 5/cell)\n"
        "    k0 |: := :*  %  == := @:%%=***:=: :=: :: : :|\n"
        "    k1 | *  :             :  :   :       =      |\n"
        "    k2 |    *  :           : :    :       =     |\n"
        "    k3 |       *   :       :  :   :         =   |\n"
        "    k4 |           *  :    :   :  :           = |\n"
        "    k5 |              *  :   : :      :        =|"
    ),
}

CENSUS = {
    4: (
        "message census\n"
        "message type   | count | bytes\n"
        "---------------+-------+------\n"
        "   barrier_req |     6 |   198\n"
        "   barrier_rsp |     6 |   198\n"
        "proc_start_req |     3 |   672\n"
        "proc_start_rsp |     3 |    96\n"
        "  gm_write_req |     3 |   120\n"
        "  gm_write_rsp |     3 |    96\n"
        "   gm_read_req |     3 |    96\n"
        "   gm_read_rsp |     3 |   192\n"
        "     proc_done |     3 |   384\n"
        "  shutdown_req |     3 |    96\n"
        "  shutdown_rsp |     3 |    96"
    ),
    6: (
        "message census\n"
        "message type   | count | bytes\n"
        "---------------+-------+------\n"
        "   barrier_req |    10 |   330\n"
        "   barrier_rsp |    10 |   330\n"
        "proc_start_req |     5 |  1120\n"
        "proc_start_rsp |     5 |   160\n"
        "  gm_write_req |     5 |   200\n"
        "  gm_write_rsp |     5 |   160\n"
        "   gm_read_req |     5 |   160\n"
        "   gm_read_rsp |     5 |   400\n"
        "     proc_done |     5 |   640\n"
        "  shutdown_req |     5 |   160\n"
        "  shutdown_rsp |     5 |   160"
    ),
}

_LOG_HEAD = (
    "    0.000000s     k0 send  ('proc_start_req', 1, 224)\n"
    "    0.000599s     k1 recv  ('proc_start_req', 0, 224)\n"
    "    0.000599s     k1 send  ('proc_start_rsp', 0, 32)\n"
    "    0.000600s     k1 send  ('gm_write_req', 0, 40)\n"
    "    0.001074s     k0 send  ('proc_start_req', 2, 224)\n"
)
EVENT_LOG = {4: _LOG_HEAD + "... 56 more", 6: _LOG_HEAD + "... 96 more"}


@pytest.mark.parametrize("p", [4, 6])
def test_renderers_reproduce_pinned_output(p):
    obs = traced_run(p).cluster.obs
    assert render_timeline(obs, width=40) == TIMELINE[p]
    assert message_census(obs) == CENSUS[p]
    assert event_log(obs, limit=5) == EVENT_LOG[p]


def test_trace_disabled_by_default():
    res = traced_run(obs_trace=False)
    assert res.cluster.obs.spans == []
    assert render_timeline(res.cluster.obs) == "no events captured (was obs_trace=True set?)"


def test_trace_records_sends_and_receives():
    res = traced_run()
    sends = _marks(res, "msg.send")
    recvs = _marks(res, "msg.recv")
    assert sends and recvs
    # Every wire-sent *request* is received by a service loop (responses
    # are consumed by their waiting requester and not re-traced; shutdown
    # is excluded because the master's own shutdown arrives via loopback).
    sent = Counter(
        s.args["type"]
        for s in sends
        if (s.args["type"].endswith("_req") or s.args["type"] == "proc_done")
        and s.args["type"] != "shutdown_req"
    )
    got = Counter(s.args["type"] for s in recvs if s.args["type"] != "shutdown_req")
    assert sent == got
    # Every instant carries its message's type, peer, size and lane kernel,
    # and sits on that kernel's (machine, UNIX process) lane.
    kernels = {k.kernel_id: k for k in res.cluster.kernels}
    for mark in sends + recvs:
        assert set(mark.args) == {"type", "peer", "bytes", "kernel"}
        kernel = kernels[mark.args["kernel"]]
        assert (mark.pid, mark.tid) == (kernel.obs_pid, kernel.obs_tid)
        assert mark.phase == "i"


def test_message_instants_join_their_rpc_trace():
    """Every message instant is parented on its RPC's trace, including the
    kernel-initiated process start, completion and shutdown messages."""
    res = traced_run()
    obs = res.cluster.obs
    by_id = {s.ctx.span_id: s for s in obs.spans}
    sends = _marks(res, "msg.send")
    reads = [s for s in sends if s.args["type"] == "gm_read_req"]
    assert reads and all(
        by_id[s.parent_id].name == "rpc:gm_read_req" for s in reads
    )
    marks = sends + _marks(res, "msg.recv")
    assert all(s.parent_id is not None for s in marks)

    def root(span):
        while span.parent_id is not None:
            span = by_id[span.parent_id]
        return span.name

    for kind, root_name in (
        ("proc_start_req", "proc.start"),
        ("proc_done", "proc.done"),
        ("shutdown_req", "dse.shutdown"),
    ):
        kind_sends = [s for s in sends if s.args["type"] == kind]
        assert kind_sends and {root(s) for s in kind_sends} == {root_name}
        # The frames of these messages are traced down the stack too.
        below = {s.name for s in obs.spans if root(s) == root_name}
        assert {"sock.send", "udp.send", "nic.tx"} <= below


def test_render_timeline():
    res = traced_run()
    text = render_timeline(res.cluster.obs, width=40)
    lines = text.splitlines()
    assert "timeline" in lines[0]
    assert len(lines) == 1 + 4  # one lane per kernel
    assert all("|" in line for line in lines[1:])


def test_render_timeline_empty_trace_friendly():
    text = render_timeline(SpanRecorder(enabled=True))
    assert text == "no events captured (was obs_trace=True set?)"
    assert event_log(SpanRecorder(enabled=True)) == text


def test_span_limit_drops_reported_in_header():
    rec = SpanRecorder(enabled=True, limit=3)
    for i in range(10):
        mark = rec.instant(i * 0.001, "msg.send", "dse", 0, 100)
        mark.args = {"type": "gm_read_req", "peer": 1, "bytes": 64, "kernel": 0}
    assert len(rec.spans) == 3
    assert rec.dropped == 7
    header = render_timeline(rec).splitlines()[0]
    assert "7 dropped past limit" in header
    # On a run, obs_span_limit drives the same header.
    res = traced_run(obs_span_limit=40)
    assert res.elapsed == traced_run().elapsed
    assert len(res.cluster.obs.spans) == 40
    assert render_timeline(res.cluster.obs, width=40).splitlines()[0] == (
        "timeline 0s .. 0.001266s (7 events, peak 3/cell, 333 dropped past limit)"
    )


def test_message_census():
    res = traced_run()
    text = message_census(res.cluster.obs)
    assert "barrier_req" in text
    assert "gm_read_req" in text


def test_event_log_limit():
    res = traced_run()
    text = event_log(res.cluster.obs, limit=5)
    lines = text.splitlines()
    assert len(lines) == 6  # 5 records + "... N more"
    assert "more" in lines[-1]


def test_hotspot_visible_in_trace():
    """Kernel 0 hosts the barrier service: it must receive the most."""
    res = traced_run(p=6)
    by_kernel = Counter(f"k{s.args['kernel']}" for s in _marks(res, "msg.recv"))
    assert max(by_kernel, key=by_kernel.get) == "k0"
