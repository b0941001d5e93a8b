"""Parallel process management module.

Implements the paper's "parallel process invocation/termination": the
parallel application (on kernel 0) asks remote kernels to start *DSE
processes* — coroutines that run inside the target kernel's UNIX process,
exactly as in the paper's one-UNIX-process organisation.  Completion flows
back as a one-way ``PROC_DONE`` notification carrying the return value.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, TYPE_CHECKING

from ..errors import ProcessManagementError
from ..sim.core import Event
from ..sim.monitor import StatSet
from .messages import DSEMessage, MsgType

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import DSEKernel

__all__ = ["ProcessManager", "RemoteProcHandle", "TaskLost"]

#: accounted wire size of a process-invocation payload (entry point name,
#: marshalled arguments) — a small pickled structure in the real system
_SPAWN_EXTRA_BYTES = 192
_DONE_EXTRA_BYTES = 96


class TaskLost:
    """Sentinel completion value for a DSE process lost to a crash.

    Delivered through the normal ``done_event`` (succeed, not fail) so
    waiters that were not written for failures never blow up; retry-aware
    callers (``taskfarm.farm_dynamic``, the resilient runner) recognise it
    with ``isinstance``.
    """

    __slots__ = ("time", "detail")

    def __init__(self, time: float = 0.0, detail: str = ""):
        self.time = time
        self.detail = detail

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TaskLost t={self.time:.6f} {self.detail!r}>"


class RemoteProcHandle:
    """Tracks one invoked DSE process until its PROC_DONE arrives."""

    def __init__(self, kernel_id: int, rank: int, done_event: Event):
        self.kernel_id = kernel_id
        self.rank = rank
        self.done_event = done_event

    @property
    def finished(self) -> bool:
        return self.done_event.triggered


class ProcessManager:
    """One kernel's parallel process management module."""

    def __init__(self, kernel: "DSEKernel"):
        self.kernel = kernel
        #: rank -> completion event (succeeds with the return value)
        self._pending: Dict[int, Event] = {}
        #: rank -> target kernel, for failing pendings when a kernel dies
        self._pending_target: Dict[int, int] = {}
        #: DSE processes started on this kernel (rank -> sim process)
        self.local_processes: Dict[int, Any] = {}
        self.stats = StatSet(f"procman:k{kernel.kernel_id}")

    # -- invoking side ----------------------------------------------------
    def invoke(
        self,
        target_kernel: int,
        entry: Callable,
        rank: int,
        args: tuple = (),
    ) -> Generator[Event, Any, RemoteProcHandle]:
        """Start ``entry(api, *args)`` as a DSE process on ``target_kernel``."""
        if rank in self._pending:
            raise ProcessManagementError(f"rank {rank} already pending")
        done = self.kernel.sim.event(name=f"proc-done:r{rank}")
        self._pending[rank] = done
        self._pending_target[rank] = target_kernel
        span = self.kernel.obs_root("proc.start")
        msg = DSEMessage(
            msg_type=MsgType.PROC_START_REQ,
            src_kernel=self.kernel.kernel_id,
            dst_kernel=target_kernel,
            addr=rank,
            data=(entry, args),
            extra_bytes=_SPAWN_EXTRA_BYTES,
            trace=None if span is None else span.ctx,
        )
        try:
            rsp = yield from self.kernel.exchange.request(msg)
        except BaseException:
            self._pending.pop(rank, None)
            self._pending_target.pop(rank, None)
            raise
        if rsp.status != "ok":
            self._pending.pop(rank, None)
            self._pending_target.pop(rank, None)
            raise ProcessManagementError(
                f"invocation of rank {rank} on kernel {target_kernel} failed: {rsp.status}"
            )
        self.stats.counter("invocations").increment()
        if span is not None:
            self.kernel.obs.end(span, self.kernel.sim.now)
        return RemoteProcHandle(target_kernel, rank, done)

    def wait(self, handle: RemoteProcHandle) -> Generator[Event, Any, Any]:
        """Await one DSE process's completion; returns its return value."""
        value = yield handle.done_event
        return value

    def wait_all(
        self, handles: List[RemoteProcHandle]
    ) -> Generator[Event, Any, Dict[int, Any]]:
        """Await a set of DSE processes; returns {rank: return value}."""
        results: Dict[int, Any] = {}
        for handle in handles:
            results[handle.rank] = yield handle.done_event
        return results

    # -- invoked side --------------------------------------------------------
    def handle_start(self, msg: DSEMessage) -> Generator[Event, Any, DSEMessage]:
        entry, args = msg.data
        rank = msg.addr
        invoker = msg.src_kernel
        if rank in self.local_processes:
            return msg.make_response(status="rank-exists")
        runner = self.kernel.start_dse_process(entry, rank, args, invoker)
        self.local_processes[rank] = runner
        self.stats.counter("started").increment()
        return msg.make_response()
        yield  # pragma: no cover - generator parity

    def notify_done(self, rank: int, invoker: int, value: Any) -> Generator[Event, Any, None]:
        """Send PROC_DONE for a finished local DSE process."""
        span = self.kernel.obs_root("proc.done")
        msg = DSEMessage(
            msg_type=MsgType.PROC_DONE,
            src_kernel=self.kernel.kernel_id,
            dst_kernel=invoker,
            addr=rank,
            data=value,
            extra_bytes=_DONE_EXTRA_BYTES,
            trace=None if span is None else span.ctx,
        )
        yield from self.kernel.exchange.notify(msg)
        if span is not None:
            self.kernel.obs.end(span, self.kernel.sim.now)

    def handle_done(self, msg: DSEMessage) -> Generator[Event, Any, None]:
        rank = msg.addr
        done = self._pending.pop(rank, None)
        self._pending_target.pop(rank, None)
        if done is None:
            if self.kernel._res is not None:
                # A completion can race a crash declaration: the pending was
                # already failed as TaskLost (or forgotten by a rollback).
                self.stats.counter("stale_completions").increment()
                return None
            raise ProcessManagementError(
                f"PROC_DONE for unknown rank {rank} at kernel {self.kernel.kernel_id}"
            )
        self.stats.counter("completions").increment()
        done.succeed(msg.data)
        return None
        yield  # pragma: no cover - generator parity

    # -- resilience ----------------------------------------------------------
    def fail_pending_for(self, dead: int, now: float) -> int:
        """Complete (as :class:`TaskLost`) every pending invocation that was
        running on a kernel just declared dead."""
        lost = 0
        for rank in sorted(self._pending_target):
            if self._pending_target[rank] != dead:
                continue
            done = self._pending.pop(rank, None)
            self._pending_target.pop(rank, None)
            if done is not None and not done.triggered:
                done.succeed(TaskLost(time=now, detail=f"kernel {dead} crashed"))
                lost += 1
        if lost:
            self.stats.counter("tasks_lost").increment(lost)
        return lost

    def forget(self, rank: int) -> None:
        """Drop any pending bookkeeping for a rank (rollback re-invocation)."""
        self._pending.pop(rank, None)
        self._pending_target.pop(rank, None)

    def clear_guests(self) -> None:
        """Forget all local guests and pendings (crash/rollback teardown).

        Callers must have killed the guest coroutines first — this only
        clears the registry."""
        self.local_processes.clear()
        self._pending.clear()
        self._pending_target.clear()
