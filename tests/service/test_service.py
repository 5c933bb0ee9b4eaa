"""Query service smoke tests: protocol, admission control, clean shutdown.

The tier-1 tests here are deliberately small: a real server on an
ephemeral port, four concurrent clients, and hard assertions that
shutdown leaks neither threads nor sockets.  The heavy closed-loop sweep
lives behind ``pytest -m service``.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.core.engine import SequenceIndex
from repro.core.model import EventLog
from repro.core.policies import Policy
from repro.service import (
    MAX_FRAME_BYTES,
    ProtocolError,
    SequenceService,
    ServiceClient,
    ServiceError,
    recv_frame,
    run_loadgen,
    send_frame,
)
from repro.kvstore import InMemoryStore


def _service_threads():
    return [
        t
        for t in threading.enumerate()
        if t.name.startswith(("repro-service", "loadgen"))
    ]


def _make_engine(num_shards=2):
    log = EventLog.from_dict(
        {
            "t1": list("ABAB"),
            "t2": list("ABC"),
            "t3": list("CBA"),
            "t4": list("AABB"),
        }
    )
    stores = [InMemoryStore() for _ in range(num_shards)]
    engine = SequenceIndex(stores, policy=Policy.STNM)
    engine.update(log)
    return engine


@pytest.fixture(params=[1, 2], ids=["single", "sharded"])
def service(request):
    engine = _make_engine(request.param)
    svc = SequenceService(engine, port=0)
    svc.start()
    yield svc
    svc.shutdown()
    engine.close()
    assert _service_threads() == []


class TestSmoke:
    def test_ping_and_queries(self, service):
        host, port = service.address
        with ServiceClient(host, port) as client:
            assert client.ping() == "pong"
            matches = client.detect(["A", "B"])
            assert matches and all(
                set(m) == {"trace_id", "timestamps"} for m in matches
            )
            assert client.count(["A", "B"]) == len(matches)
            assert client.contains(["A", "B"]) == sorted(
                {m["trace_id"] for m in matches}
            )
            composite = client.detect("SEQ(A, B) WITHIN 3")
            assert all(
                m["timestamps"][-1] - m["timestamps"][0] <= 3 for m in composite
            )

    def test_ingest_becomes_visible(self, service):
        host, port = service.address
        with ServiceClient(host, port) as client:
            before = client.count(["A", "B"])
            stats = client.ingest(
                [["fresh-1", "A", 1.0], ["fresh-1", "B", 2.0]]
            )
            assert stats["events_indexed"] == 2
            assert client.count(["A", "B"]) == before + 1
            assert "fresh-1" in client.contains(["A", "B"])

    def test_four_concurrent_clients(self, service):
        host, port = service.address
        errors = []

        def hammer(worker):
            try:
                with ServiceClient(host, port) as client:
                    for i in range(25):
                        if i % 5 == 0:
                            client.ingest(
                                [[f"w{worker}", "A", float(i)],
                                 [f"w{worker}", "B", i + 0.5]]
                            )
                        else:
                            client.detect(["A", "B"])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []

    def test_bad_requests_keep_connection_alive(self, service):
        host, port = service.address
        with ServiceClient(host, port) as client:
            with pytest.raises(ServiceError) as exc_info:
                client._call("no-such-op")
            assert exc_info.value.code == "bad_request"
            with pytest.raises(ServiceError) as exc_info:
                client.detect("SEQ(")
            assert exc_info.value.code == "bad_request"
            with pytest.raises(ServiceError) as exc_info:
                client.detect([])
            assert exc_info.value.code == "bad_request"
            # The connection survived all three failures.
            assert client.ping() == "pong"

    def test_expired_deadline_is_reported(self, service):
        host, port = service.address
        with ServiceClient(host, port) as client:
            with pytest.raises(ServiceError) as exc_info:
                client.detect(["A", "B"], deadline_ms=0.0)
            assert exc_info.value.code == "deadline"

    def test_stats_reports_engine_shape(self, service):
        host, port = service.address
        with ServiceClient(host, port) as client:
            stats = client.stats()
        assert stats["num_shards"] == service.engine.num_shards
        assert len(stats["shards"]) == service.engine.num_shards


class _BrokenEngine:
    """An engine failing with the bare ``KeyError`` of an internal bug."""

    def detect(self, *args, **kwargs):
        raise KeyError((229, "act_067"))


class TestErrorClassification:
    def test_engine_key_error_is_internal(self, caplog):
        svc = SequenceService(_BrokenEngine(), port=0)
        svc.start()
        try:
            with ServiceClient(*svc.address) as client:
                with pytest.raises(ServiceError) as exc_info:
                    client.detect(["A", "B"])
                assert exc_info.value.code == "internal"
                assert "KeyError" in str(exc_info.value)
                # A malformed request is still the client's fault.
                with pytest.raises(ServiceError) as exc_info:
                    client._call("detect", pattern=["A", 2])
                assert exc_info.value.code == "bad_request"
                assert client.ping() == "pong"
        finally:
            svc.shutdown()
        assert "internal error" in caplog.text

    def test_malformed_fields_are_bad_requests(self, service):
        host, port = service.address
        with ServiceClient(host, port) as client:
            for fields in (
                {"pattern": ["A", "B"], "within": -1},
                {"pattern": "SEQ(A, B)", "within": 3},
                {"pattern": ["A", "B"], "max_matches": "many"},
                {"pattern": ["A", "B"], "partition": 7},
                {"pattern": ["A", "B"], "deadline_ms": "soon"},
            ):
                with pytest.raises(ServiceError) as exc_info:
                    client._call("detect", **fields)
                assert exc_info.value.code == "bad_request", fields
            with pytest.raises(ServiceError) as exc_info:
                client._call("ingest", events=[["t", "A"]])
            assert exc_info.value.code == "bad_request"
            assert client.ping() == "pong"


class TestShutdown:
    def test_drain_refuses_new_requests(self):
        engine = _make_engine()
        svc = SequenceService(engine, port=0)
        svc.start()
        host, port = svc.address
        client = ServiceClient(host, port)
        try:
            assert client.ping() == "pong"
            svc.shutdown()
            with pytest.raises((ServiceError, OSError)) as exc_info:
                client.ping()
            if isinstance(exc_info.value, ServiceError):
                assert exc_info.value.code == "shutdown"
        finally:
            client.close()
            engine.close()
        assert _service_threads() == []

    def test_port_is_released(self):
        engine = _make_engine()
        svc = SequenceService(engine, port=0)
        svc.start()
        host, port = svc.address
        svc.shutdown()
        engine.close()
        # The listener socket is gone: binding the port again succeeds.
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            probe.bind((host, port))
        finally:
            probe.close()

    def test_double_shutdown_is_idempotent(self):
        engine = _make_engine()
        svc = SequenceService(engine, port=0)
        svc.start()
        svc.shutdown()
        svc.shutdown()
        engine.close()


class TestAdmissionControl:
    class _SlowEngine:
        """Stand-in engine whose detect blocks until released."""

        def __init__(self):
            self.release = threading.Event()
            self.entered = threading.Event()

        def detect(
            self, pattern, partition="", max_matches=None, within=None, deadline=None
        ):
            self.entered.set()
            self.release.wait(timeout=10.0)
            return []

        def close(self):
            pass

    def test_overloaded_when_slots_exhausted(self):
        engine = self._SlowEngine()
        svc = SequenceService(engine, port=0, max_inflight=1)
        svc.start()
        host, port = svc.address
        try:
            slow = ServiceClient(host, port)
            result = {}

            def blocked():
                result["matches"] = slow.detect(["A", "B"])

            thread = threading.Thread(target=blocked)
            thread.start()
            assert engine.entered.wait(timeout=5.0)
            with ServiceClient(host, port) as fast:
                with pytest.raises(ServiceError) as exc_info:
                    fast.detect(["A", "B"])
                assert exc_info.value.code == "overloaded"
            engine.release.set()
            thread.join(timeout=5.0)
            assert result["matches"] == []
            slow.close()
        finally:
            engine.release.set()
            svc.shutdown()
        assert _service_threads() == []


class TestProtocol:
    def test_oversized_frame_is_refused(self):
        left, right = socket.socketpair()
        try:
            with pytest.raises(ProtocolError):
                send_frame(left, {"pad": "x" * (MAX_FRAME_BYTES + 1)})
        finally:
            left.close()
            right.close()

    def test_roundtrip_and_eof(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, {"id": 1, "op": "ping"})
            assert recv_frame(right) == {"id": 1, "op": "ping"}
            left.close()
            assert recv_frame(right) is None
        finally:
            right.close()

    def test_mid_frame_eof_is_an_error(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"\x00\x00\x00\x10abc")  # promises 16, sends 3
            left.close()
            with pytest.raises(ProtocolError):
                recv_frame(right)
        finally:
            right.close()


@pytest.mark.service
class TestLoadSweep:
    """Heavy closed-loop sweep; opt in with ``pytest -m service``."""

    def test_sustained_mixed_load(self):
        engine = _make_engine(num_shards=4)
        svc = SequenceService(engine, port=0, max_inflight=16)
        svc.start()
        host, port = svc.address
        try:
            report = run_loadgen(
                host,
                port,
                patterns=[["A", "B"], "SEQ(A, (B|C)) WITHIN 5"],
                clients=8,
                duration_s=5.0,
                write_fraction=0.3,
                seed=11,
            )
            assert report.errors == 0
            assert report.qps > 0
            assert report.latency_ms["read"]["p99"] >= report.latency_ms[
                "read"
            ]["p50"]
        finally:
            svc.shutdown()
            engine.close()
        assert _service_threads() == []
