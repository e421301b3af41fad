"""A miniature TCP implementation shared by hosts and cloud endpoints.

The paper's captures contain ordinary request/response TCP flows (TLS
handshakes, HTTP-ish exchanges) plus the artifacts port scanning relies on
(SYN-ACK from open ports, RST from closed ones). This module implements a
compact state machine sufficient for exactly those behaviours on a lossless
simulated network: three-way handshake, a pipelined sequence of
request/response payloads, FIN teardown, RST on refused connections, and a
client-side timeout.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.packet import Raw
from repro.net.tcp import FLAG_ACK, FLAG_FIN, FLAG_PSH, FLAG_RST, FLAG_SYN, TCP

ConnKey = tuple  # (local_ip, local_port, remote_ip, remote_port)

SendFn = Callable[[object, object, TCP], None]  # (local_ip, remote_ip, segment)


class TcpConnection:
    """Client-side connection driving a list of request payloads."""

    def __init__(
        self,
        engine: "TcpEngine",
        key: ConnKey,
        requests: list[bytes],
        on_complete: Callable[[list[bytes]], None],
        on_fail: Callable[[str], None],
    ):
        self.engine = engine
        self.key = key
        self.requests = list(requests)
        self.responses: list[bytes] = []
        self.on_complete = on_complete
        self.on_fail = on_fail
        self.state = "SYN_SENT"
        self.seq = engine.draw_isn()
        self.ack = 0
        self.timeout_event = None

    def _send(self, flags: int, payload: bytes = b"") -> None:
        local_ip, local_port, remote_ip, remote_port = self.key
        segment = TCP(
            local_port,
            remote_port,
            flags,
            seq=self.seq,
            ack=self.ack,
            payload=Raw(payload) if payload else None,
        )
        self.engine.send(local_ip, remote_ip, segment)
        self.seq = (self.seq + len(payload) + (1 if flags & (FLAG_SYN | FLAG_FIN) else 0)) & 0xFFFFFFFF

    def start(self, timeout: float) -> None:
        flow_path = self.engine.flow_path
        if flow_path is not None and flow_path.try_tcp(self):
            return
        self.timeout_event = self.engine.schedule(timeout, self._timeout)
        self._send(FLAG_SYN)

    def _timeout(self) -> None:
        if self.state not in ("CLOSED", "FAILED"):
            self.state = "FAILED"
            self.engine.drop(self.key)
            self.on_fail("timeout")

    def _finish(self, reason: Optional[str]) -> None:
        if self.timeout_event is not None:
            self.timeout_event.cancel()
        self.engine.drop(self.key)
        if reason is None:
            self.state = "CLOSED"
            self.on_complete(self.responses)
        else:
            self.state = "FAILED"
            self.on_fail(reason)

    def _next_request(self) -> None:
        if self.requests:
            self._send(FLAG_PSH | FLAG_ACK, self.requests.pop(0))
            self.state = "AWAIT_RESPONSE"
        else:
            self._send(FLAG_FIN | FLAG_ACK)
            self.state = "FIN_WAIT"

    def on_segment(self, segment: TCP) -> None:
        if segment.rst:
            self._finish("refused")
            return
        if self.state == "SYN_SENT" and segment.syn and segment.ack_flag:
            self.ack = (segment.seq + 1) & 0xFFFFFFFF
            self._send(FLAG_ACK)
            self.state = "ESTABLISHED"
            self._next_request()
            return
        payload = segment.payload_bytes
        if payload:
            self.ack = (segment.seq + len(payload)) & 0xFFFFFFFF
        if self.state == "AWAIT_RESPONSE" and payload:
            self.responses.append(payload)
            self._send(FLAG_ACK)
            self._next_request()
            return
        if self.state == "FIN_WAIT" and (segment.fin or segment.ack_flag):
            if segment.fin:
                self.ack = (segment.seq + 1) & 0xFFFFFFFF
                self._send(FLAG_ACK)
            self._finish(None)


class _ServerConn:
    """Server-side connection state."""

    __slots__ = ("seq", "ack", "established")

    def __init__(self, seq: int):
        self.seq = seq
        self.ack = 0
        self.established = False


class TcpEngine:
    """Per-node TCP demultiplexer for both client and server roles.

    ``send(local_ip, remote_ip, segment)`` is provided by the owner and binds
    segments to the owner's IP send path. ``schedule(delay, fn)`` binds
    timeouts to the simulator.
    """

    # Hybrid-fidelity hook (repro.stack.flowpath): when set, every client
    # connection offers itself to the flow-level fast path before its SYN.
    # ``flow_host`` is the owning host stack.
    flow_path = None
    flow_host = None

    def __init__(self, send: SendFn, schedule, rng):
        self.send = send
        self.schedule = schedule
        self.rng = rng
        self.listeners: dict[int, Callable[[bytes], bytes]] = {}
        self._clients: dict[ConnKey, TcpConnection] = {}
        self._server_conns: dict[ConnKey, _ServerConn] = {}

    def draw_isn(self) -> int:
        """An initial sequence number: a client's at connect, a server's when
        a SYN reaches an open port."""
        return self.rng.getrandbits(32)

    # -- server role ----------------------------------------------------------

    def listen(self, port: int, handler: Callable[[bytes], bytes]) -> None:
        """Serve ``port``: handler maps each request payload to a response."""
        self.listeners[port] = handler

    # -- client role ----------------------------------------------------------

    def connect(
        self,
        local_ip,
        remote_ip,
        remote_port: int,
        requests: list[bytes],
        on_complete: Callable[[list[bytes]], None],
        on_fail: Callable[[str], None],
        *,
        local_port: Optional[int] = None,
        timeout: float = 10.0,
    ) -> TcpConnection:
        if local_port is None:
            local_port = self.rng.randint(32768, 60999)
        key = (local_ip, local_port, remote_ip, remote_port)
        conn = TcpConnection(self, key, requests, on_complete, on_fail)
        self._clients[key] = conn
        conn.start(timeout)
        return conn

    def drop(self, key: ConnKey) -> None:
        self._clients.pop(key, None)

    # -- segment demux ----------------------------------------------------------

    def on_segment(self, local_ip, remote_ip, segment: TCP) -> None:
        client_key = (local_ip, segment.dport, remote_ip, segment.sport)
        client = self._clients.get(client_key)
        if client is not None:
            client.on_segment(segment)
            return
        self._serve(local_ip, remote_ip, segment)

    def _reply(self, local_ip, remote_ip, segment: TCP, flags: int, seq: int, ack: int, payload: bytes = b"") -> int:
        reply = TCP(
            segment.dport,
            segment.sport,
            flags,
            seq=seq,
            ack=ack,
            payload=Raw(payload) if payload else None,
        )
        self.send(local_ip, remote_ip, reply)
        return (seq + len(payload) + (1 if flags & (FLAG_SYN | FLAG_FIN) else 0)) & 0xFFFFFFFF

    def _serve(self, local_ip, remote_ip, segment: TCP) -> None:
        key = (local_ip, segment.dport, remote_ip, segment.sport)
        handler = self.listeners.get(segment.dport)
        if segment.syn and not segment.ack_flag:
            if handler is None:
                # Closed port: RST-ACK, exactly what a SYN scan records.
                self._reply(local_ip, remote_ip, segment, FLAG_RST | FLAG_ACK, 0, (segment.seq + 1) & 0xFFFFFFFF)
                return
            conn = _ServerConn(self.draw_isn())
            conn.ack = (segment.seq + 1) & 0xFFFFFFFF
            self._server_conns[key] = conn
            conn.seq = self._reply(local_ip, remote_ip, segment, FLAG_SYN | FLAG_ACK, conn.seq, conn.ack)
            return
        conn = self._server_conns.get(key)
        if conn is None:
            if segment.rst:
                return
            # Stray segment to a port with no connection: RST unless it is a
            # bare ACK completing a handshake we never saw.
            if not segment.ack_flag or segment.fin or segment.payload_bytes:
                self._reply(local_ip, remote_ip, segment, FLAG_RST, segment.ack, 0)
            return
        if segment.rst:
            del self._server_conns[key]
            return
        payload = segment.payload_bytes
        if segment.syn:
            return
        conn.established = True
        if payload and handler is not None:
            conn.ack = (segment.seq + len(payload)) & 0xFFFFFFFF
            response = handler(payload)
            conn.seq = self._reply(
                local_ip, remote_ip, segment, FLAG_PSH | FLAG_ACK, conn.seq, conn.ack, response or b""
            )
            return
        if segment.fin:
            conn.ack = (segment.seq + 1) & 0xFFFFFFFF
            self._reply(local_ip, remote_ip, segment, FLAG_FIN | FLAG_ACK, conn.seq, conn.ack)
            del self._server_conns[key]

    def flush(self) -> None:
        self._clients.clear()
        self._server_conns.clear()
