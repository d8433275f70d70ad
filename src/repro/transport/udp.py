"""Real-time asyncio UDP transport: the combiner over actual sockets.

One :class:`UdpTransport` owns one datagram socket.  Outbound sessions
carry a ``remote`` address; inbound dispatch matches a decoded
:class:`~repro.transport.wire.WireMessage` to the open session with the
same ``(role, scope, branch)``, falling back to ``(role, scope)`` — so a
compare process opens *one* collect session per scope and receives every
branch's copies through it, branch identity riding in the message.

Wire images are rebuilt into :class:`~repro.net.packet.Packet` objects
on receive (``Packet.parse``), so the compare's bit-exact policy hashes
the same bytes the DES backend sees.  What is *not* preserved over UDP
is DES timing exactness: arrival times are wall-clock, so anything
counted in packets (quorums, miss thresholds, probation credits) is
comparable across backends while latency histograms are not — see
DESIGN.md §14.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, Optional, Tuple

from repro.net.packet import Packet
from repro.transport.base import (
    Session,
    SessionSpec,
    Transport,
    TransportError,
)
from repro.transport.wire import (
    MSG_BYE,
    MSG_DATA,
    MSG_HELLO,
    WireMessage,
    decode_message,
    encode_message,
)

Address = Tuple[str, int]
#: control callback: fn(mtype, scope, branch, addr)
ControlHandler = Callable[[int, str, Optional[int], Address], None]


class UdpSession(Session):
    """One directed message stream over the owning socket."""

    def __init__(
        self,
        transport: "UdpTransport",
        spec: SessionSpec,
        remote: Optional[Address] = None,
    ) -> None:
        super().__init__(transport, spec)
        self.remote = remote
        self._seq = 0

    def send(
        self,
        packet: object,
        branch: Optional[int] = None,
        claim: Optional[int] = None,
    ) -> None:
        if branch is None:
            branch = self.spec.branch
        seq = self._seq
        self._seq += 1
        self.stats.tx_messages += 1
        transport: "UdpTransport" = self.transport  # type: ignore[assignment]
        data = encode_message(
            MSG_DATA,
            self.spec.role,
            self.spec.scope,
            payload=bytes(packet.to_bytes()),
            branch=branch,
            claim=claim,
            seq=seq,
        )
        transport._sendto(data, self.remote)


class _Protocol(asyncio.DatagramProtocol):
    def __init__(self, transport: "UdpTransport") -> None:
        self._owner = transport

    def datagram_received(self, data: bytes, addr: Address) -> None:
        self._owner._on_datagram(data, addr)

    def error_received(self, exc: Exception) -> None:  # pragma: no cover
        self._owner.rx_errors += 1


class UdpTransport(Transport):
    """One socket, many sessions; see module docstring."""

    def __init__(
        self,
        local: Address = ("127.0.0.1", 0),
        name: str = "udp",
    ) -> None:
        super().__init__(name)
        self.local = local
        self.rx_errors = 0
        self.rx_unmatched = 0
        self._endpoint: Optional[asyncio.DatagramTransport] = None
        self._control: Optional[ControlHandler] = None
        self._default_remote: Optional[Address] = None

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> Address:
        """Bind the socket; returns the actual local address."""
        if self._endpoint is not None:
            return self.local_address()
        loop = asyncio.get_running_loop()
        self._endpoint, _ = await loop.create_datagram_endpoint(
            lambda: _Protocol(self), local_addr=self.local
        )
        return self.local_address()

    def local_address(self) -> Address:
        if self._endpoint is None:
            raise TransportError(f"transport {self.name!r} is not started")
        sock = self._endpoint.get_extra_info("sockname")
        return (sock[0], sock[1])

    def close(self) -> None:
        super().close()
        if self._endpoint is not None:
            self._endpoint.close()
            self._endpoint = None

    # -- sessions -------------------------------------------------------
    def set_default_remote(self, remote: Address) -> None:
        """Remote used by sessions opened without an explicit one."""
        self._default_remote = remote

    def _make_session(self, spec: SessionSpec, **options: object) -> UdpSession:
        remote = options.get("remote", self._default_remote)
        return UdpSession(self, spec, remote=remote)  # type: ignore[arg-type]

    # -- control messages (HELLO/BYE lifecycle) -------------------------
    def set_control_handler(self, fn: Optional[ControlHandler]) -> None:
        self._control = fn

    def send_control(
        self,
        mtype: int,
        scope: str,
        branch: Optional[int] = None,
        remote: Optional[Address] = None,
    ) -> None:
        if mtype not in (MSG_HELLO, MSG_BYE):
            raise TransportError(f"not a control message type: {mtype}")
        from repro.transport.base import ROLE_COLLECT

        data = encode_message(mtype, ROLE_COLLECT, scope, branch=branch)
        self._sendto(data, remote or self._default_remote)

    # -- datapath -------------------------------------------------------
    def _sendto(self, data: bytes, remote: Optional[Address]) -> None:
        if self._endpoint is None:
            raise TransportError(f"transport {self.name!r} is not started")
        if remote is None:
            raise TransportError("session has no remote address")
        self._endpoint.sendto(data, remote)

    def _on_datagram(self, data: bytes, addr: Address) -> None:
        try:
            message = decode_message(data)
        except TransportError:
            self.rx_errors += 1
            return
        if message.mtype != MSG_DATA:
            if self._control is not None:
                self._control(message.mtype, message.scope, message.branch, addr)
            return
        session = self._match(message)
        if session is None:
            self.rx_unmatched += 1
            return
        try:
            packet = Packet.parse(message.payload)
        except Exception:
            self.rx_errors += 1
            return
        meta = message.meta()
        meta["peer"] = addr
        session.deliver(packet, meta)

    def _match(self, message: WireMessage) -> Optional[Session]:
        exact = SessionSpec(message.scope, message.role, message.branch)
        session = self.sessions.get(exact)
        if session is not None:
            return session
        return self.sessions.get(SessionSpec(message.scope, message.role))
