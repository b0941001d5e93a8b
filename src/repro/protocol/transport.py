"""Transport abstraction.

The re-organised DSE "eliminates dependency on a specific communication
protocol" — the kernel's message-exchange module talks to this interface,
and cluster construction decides whether the wire service is the datagram
service or one of the reliable transports:

==============  ============================================================
kind            service
==============  ============================================================
``datagram``    :class:`~repro.protocol.udp.DatagramService` — unreliable
``reliable``    :class:`~repro.protocol.tcp.ReliableService` — stop-and-wait
``reliable-gbn``:class:`~repro.protocol.tcp.WindowedReliableService` — go-back-N
``sr``          :class:`~repro.protocol.sr.SelectiveRepeatService` — SR+SACK,
                AIMD congestion control
``dual``        :class:`~repro.protocol.sr.SelectiveRepeatService` with
                ``dual_channel=True`` — SR+SACK reliable lane + raw
                unreliable lane (``send(..., channel=...)``) on one port
==============  ============================================================

See ``docs/networking.md`` for the state machines and selection guidance.
"""

from __future__ import annotations

from typing import Any, Generator, Protocol, Union

from ..errors import ConfigurationError
from ..sim.core import Simulator
from ..network.nic import NIC
from .sr import SelectiveRepeatService
from .tcp import ReliableService, WindowedReliableService
from .udp import DatagramService, Mailbox

__all__ = ["Transport", "make_transport", "TRANSPORT_KINDS"]

TRANSPORT_KINDS = ("datagram", "reliable", "reliable-gbn", "sr", "dual")


class Transport(Protocol):
    """Structural interface shared by the transports."""

    def bind(self, port: int) -> Mailbox: ...

    def send(
        self,
        dst: int,
        dst_port: int,
        payload: Any,
        payload_bytes: int,
        src_port: int = 0,
        trace: Any = None,
    ) -> Generator: ...


def make_transport(
    sim: Simulator, nic: NIC, kind: str = "datagram"
) -> Union[
    DatagramService, ReliableService, WindowedReliableService, SelectiveRepeatService
]:
    """Build the requested transport over ``nic``."""
    if kind not in TRANSPORT_KINDS:
        raise ConfigurationError(
            f"unknown transport kind {kind!r}; expected one of {TRANSPORT_KINDS}"
        )
    datagram = DatagramService(sim, nic)
    if kind == "datagram":
        return datagram
    if kind == "reliable":
        return ReliableService(sim, datagram)
    if kind == "reliable-gbn":
        return WindowedReliableService(sim, datagram)
    return SelectiveRepeatService(sim, datagram, dual_channel=kind == "dual")
