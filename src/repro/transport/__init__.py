"""Pluggable transports: how combiner bytes move between elements.

The NetCo elements (hub, endpoints, compare) are wired to each other
through :class:`~repro.transport.base.Transport` /
:class:`~repro.transport.base.Session` objects instead of talking to DES
ports directly.  Two byte-moving backends exist:

* :class:`~repro.transport.des.DesTransport` — the discrete-event
  backend: sessions wrap :class:`~repro.net.node.Port` objects and every
  record stays bit-identical to the pre-refactor code (the adapter is a
  zero-behaviour shim plus counters);
* :class:`~repro.transport.udp.UdpTransport` — a real-time asyncio
  backend framing the same wire images into localhost UDP datagrams, so
  the *same* ``CompareCore``/``QuarantineController`` code votes over
  actual sockets between processes (``python -m repro live``).

See DESIGN.md §14 for the interface contract.
"""

from repro.transport.base import (
    ROLE_COLLECT,
    ROLE_EGRESS,
    ROLE_FANOUT,
    ROLE_RELEASE,
    Session,
    SessionSpec,
    Transport,
    TransportError,
)
from repro.transport.des import DesTransport

__all__ = [
    "ROLE_COLLECT",
    "ROLE_EGRESS",
    "ROLE_FANOUT",
    "ROLE_RELEASE",
    "DesTransport",
    "Session",
    "SessionSpec",
    "Transport",
    "TransportError",
]
