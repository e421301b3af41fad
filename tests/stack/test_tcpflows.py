"""Unit tests for the miniature TCP state machines."""

from repro.net.tcp import FLAG_ACK, FLAG_RST, FLAG_SYN, TCP
from repro.sim import Simulator
from repro.stack.tcpflows import TcpEngine


class Harness:
    """Two engines wired back-to-back through a lossy-capable pipe."""

    def __init__(self, drop_server_responses: bool = False):
        self.sim = Simulator()
        self.drop = drop_server_responses
        self.client = TcpEngine(self._to_server, self.sim.schedule, self.sim.rng_for("c"))
        self.server = TcpEngine(self._to_client, self.sim.schedule, self.sim.rng_for("s"))
        self.wire: list[tuple[str, TCP]] = []

    def _to_server(self, local_ip, remote_ip, segment):
        self.wire.append(("c>s", segment))
        self.sim.schedule(0.001, self.server.on_segment, remote_ip, local_ip, segment)

    def _to_client(self, local_ip, remote_ip, segment):
        self.wire.append(("s>c", segment))
        if self.drop:
            return
        self.sim.schedule(0.001, self.client.on_segment, remote_ip, local_ip, segment)


class TestClientServer:
    def test_single_request_response(self):
        h = Harness()
        h.server.listen(443, lambda req: b"response:" + req)
        box = {}
        h.client.connect(
            "10.0.0.2",
            "10.0.0.9",
            443,
            [b"hello"],
            lambda r: box.setdefault("ok", r),
            lambda r: box.setdefault("fail", r),
        )
        h.sim.run(5.0)
        assert box.get("ok") == [b"response:hello"]

    def test_pipelined_requests(self):
        h = Harness()
        h.server.listen(443, lambda req: req.upper())
        box = {}
        h.client.connect(
            "10.0.0.2", "10.0.0.9", 443, [b"one", b"two", b"three"],
            lambda r: box.setdefault("ok", r), lambda r: box.setdefault("fail", r),
        )
        h.sim.run(5.0)
        assert box.get("ok") == [b"ONE", b"TWO", b"THREE"]

    def test_closed_port_refused(self):
        h = Harness()
        box = {}
        h.client.connect(
            "10.0.0.2", "10.0.0.9", 81, [b"x"], lambda r: box.setdefault("ok", r), lambda r: box.setdefault("fail", r)
        )
        h.sim.run(5.0)
        assert box.get("fail") == "refused"

    def test_unanswered_syn_times_out(self):
        h = Harness(drop_server_responses=True)
        h.server.listen(443, lambda req: req)
        box = {}
        h.client.connect(
            "10.0.0.2",
            "10.0.0.9",
            443,
            [b"x"],
            lambda r: box.setdefault("ok", r),
            lambda r: box.setdefault("fail", r),
            timeout=3.0,
        )
        h.sim.run(10.0)
        assert box.get("fail") == "timeout"

    def test_handshake_visible_on_wire(self):
        h = Harness()
        h.server.listen(443, lambda req: b"")
        h.client.connect("10.0.0.2", "10.0.0.9", 443, [], lambda r: None, lambda r: None)
        h.sim.run(5.0)
        kinds = [(d, s.flags & (FLAG_SYN | FLAG_ACK | FLAG_RST)) for d, s in h.wire[:3]]
        assert kinds[0] == ("c>s", FLAG_SYN)
        assert kinds[1] == ("s>c", FLAG_SYN | FLAG_ACK)
        assert kinds[2] == ("c>s", FLAG_ACK)

    def test_fin_teardown(self):
        h = Harness()
        h.server.listen(443, lambda req: b"ok")
        box = {}
        h.client.connect(
            "10.0.0.2", "10.0.0.9", 443, [b"x"], lambda r: box.setdefault("ok", r), lambda r: box.setdefault("fail", r)
        )
        h.sim.run(5.0)
        fins = [s for _, s in h.wire if s.fin]
        assert len(fins) == 2  # one each way

    def test_concurrent_connections_isolated(self):
        h = Harness()
        h.server.listen(443, lambda req: req[::-1])
        results = {}
        for i in range(5):
            h.client.connect(
                "10.0.0.2", "10.0.0.9", 443, [f"req{i}".encode()],
                lambda r, i=i: results.setdefault(i, r), lambda r: None,
            )
        h.sim.run(5.0)
        assert results == {i: [f"req{i}".encode()[::-1]] for i in range(5)}

    def test_sequence_numbers_advance_with_payload(self):
        h = Harness()
        h.server.listen(443, lambda req: b"y" * 10)
        h.client.connect("10.0.0.2", "10.0.0.9", 443, [b"x" * 100], lambda r: None, lambda r: None)
        h.sim.run(5.0)
        data_segments = [s for d, s in h.wire if d == "c>s" and s.payload and s.payload.encode()]
        fin = next(s for d, s in h.wire if d == "c>s" and s.fin)
        assert fin.seq >= data_segments[0].seq + 100

    def test_stray_segment_gets_rst(self):
        h = Harness()
        stray = TCP(5000, 443, FLAG_ACK, seq=1, ack=1)
        from repro.net.packet import Raw

        stray.payload = Raw(b"junk")
        h.server.on_segment("10.0.0.9", "10.0.0.2", stray)
        h.sim.run(1.0)
        assert any(s.rst for _, s in h.wire)
