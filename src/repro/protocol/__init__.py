"""Transport protocols: the datagram service and the reliable services."""

from .packet import Fragment, Packet, UDP_HEADER_BYTES, fragment_sizes
from .port import ReliablePort
from .sr import (
    CHANNELS,
    SR_ACK_PORT_OFFSET,
    SelectiveRepeatService,
    SRSegment,
    coalesce_ranges,
)
from .tcp import (
    GBN_ACK_PORT_OFFSET,
    RELIABLE_ACK_PORT_OFFSET,
    ReliableService,
    WindowedReliableService,
)
from .transport import TRANSPORT_KINDS, Transport, make_transport
from .udp import DatagramService, Mailbox

__all__ = [
    "Fragment",
    "Packet",
    "UDP_HEADER_BYTES",
    "fragment_sizes",
    "ReliablePort",
    "CHANNELS",
    "SR_ACK_PORT_OFFSET",
    "SelectiveRepeatService",
    "SRSegment",
    "coalesce_ranges",
    "GBN_ACK_PORT_OFFSET",
    "RELIABLE_ACK_PORT_OFFSET",
    "ReliableService",
    "WindowedReliableService",
    "TRANSPORT_KINDS",
    "Transport",
    "make_transport",
    "DatagramService",
    "Mailbox",
]
