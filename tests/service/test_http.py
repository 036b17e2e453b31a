"""End-to-end HTTP tests: ServiceThread + ServiceClient over a real socket."""

import json
import socket
import urllib.parse

import pytest

from repro.analysis.parallel import Runner
from repro.service.client import ServiceClient, ServiceError
from repro.service.fabric import ShardPool
from repro.service.http import ServiceThread

SMOKE_SPEC = """
campaign: 1
name: tiny
scale: smoke
grids:
  - workloads: [fmm]
    configs:
      - {name: eager, mode: eager}
"""


@pytest.fixture
def service(tmp_path):
    runner = Runner(cache_dir=tmp_path / "cache")
    pool = ShardPool(runner, state_dir=tmp_path / "state")
    pool.start()
    thread = ServiceThread(pool).start()
    try:
        yield runner, pool, ServiceClient(thread.url)
    finally:
        thread.stop()
        pool.stop()


class TestEndToEnd:
    def test_health(self, service):
        _, _, client = service
        health = client.health()
        assert health["ok"] is True
        assert health["campaigns"] == 0

    def test_submit_wait_fetch(self, service):
        runner, _, client = service
        status = client.submit(SMOKE_SPEC)
        assert status["state"] in ("queued", "running", "done")
        status = client.wait(status["id"], timeout=60)
        assert status["state"] == "done"
        assert status["simulated"] == 1
        rows = client.results(status["id"])
        assert len(rows) == 1
        assert rows[0]["workload"] == "fmm"
        assert rows[0]["config"] == "eager"
        assert rows[0]["metrics"]["cycles"] > 0

    def test_events_stream_ends_with_done(self, service):
        _, _, client = service
        status = client.submit(SMOKE_SPEC)
        client.wait(status["id"], timeout=60)
        events = list(client.events(status["id"]))
        assert events[0]["event"] == "submitted"
        assert events[-1]["event"] == "done"
        assert any(e["event"] == "result" for e in events)

    def test_scale_query_overrides_spec(self, service):
        _, _, client = service
        status = client.submit(SMOKE_SPEC, scale="quick")
        assert status["scale"] == "quick"
        assert status["total"] == 2  # quick has two seeds

    def test_list_campaigns(self, service):
        _, _, client = service
        client.submit(SMOKE_SPEC)
        ids = {c["id"] for c in client.list_campaigns()}
        assert len(ids) == 1


class TestWarmRerun:
    def test_second_submission_same_service_is_idempotent(self, service):
        runner, _, client = service
        first = client.submit(SMOKE_SPEC)
        client.wait(first["id"], timeout=60)
        again = client.submit(SMOKE_SPEC)
        assert again["id"] == first["id"]
        assert again["state"] == "done"
        assert runner.stats.simulated == 1

    def test_warm_rerun_through_fresh_service_runs_zero_simulations(
        self, tmp_path
    ):
        """A brand-new service over a warm cache answers the same campaign
        without simulating anything."""
        for expect_simulated in (1, 0):
            runner = Runner(cache_dir=tmp_path / "cache")
            pool = ShardPool(runner, state_dir=tmp_path / "state")
            pool.start()
            thread = ServiceThread(pool).start()
            try:
                client = ServiceClient(thread.url)
                status = client.submit(SMOKE_SPEC)
                status = client.wait(status["id"], timeout=60)
                assert status["state"] == "done"
                assert runner.stats.simulated == expect_simulated
                assert len(client.results(status["id"])) == 1
            finally:
                thread.stop()
                pool.stop()


class TestErrors:
    def test_bad_spec_is_400(self, service):
        _, _, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.submit("campaign: 99\nname: bad\ngrids: []\n")
        assert excinfo.value.status == 400

    def test_unknown_campaign_is_404(self, service):
        _, _, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.status("deadbeef" * 8)
        assert excinfo.value.status == 404

    def test_results_before_done_is_409(self, tmp_path):
        runner = Runner(cache_dir=tmp_path / "cache")
        pool = ShardPool(runner)  # never started: stays queued
        thread = ServiceThread(pool).start()
        try:
            client = ServiceClient(thread.url)
            status = client.submit(SMOKE_SPEC)
            with pytest.raises(ServiceError) as excinfo:
                client.results(status["id"])
            assert excinfo.value.status == 409
        finally:
            thread.stop()

    def test_unknown_route_is_404(self, service):
        _, _, client = service
        with pytest.raises(ServiceError) as excinfo:
            client._json("GET", "/nope")
        assert excinfo.value.status == 404

    @pytest.mark.parametrize(
        "request_bytes,status",
        [
            (b"POST /campaigns HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
            (b"POST /campaigns HTTP/1.1\r\nContent-Length: five\r\n\r\n", 400),
            # One header line just past StreamReader's 64 KiB line limit.
            (b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * (1 << 16) + b"\r\n\r\n",
             400),
            (b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n", 400),
            (b"GET /healthz\r\n\r\n", 400),
            (b"POST /campaigns HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n", 413),
        ],
        ids=["negative-length", "non-integer-length", "over-long-header",
             "malformed-header", "malformed-request-line", "oversize-body"],
    )
    def test_hostile_framing_is_4xx_and_service_survives(
        self, service, request_bytes, status
    ):
        """Framing the parser cannot honour gets a typed JSON error (it
        used to escape ``handle`` and leave the client an empty reply),
        and the same server keeps answering."""
        _, _, client = service
        url = urllib.parse.urlsplit(client.base_url)
        with socket.create_connection((url.hostname, url.port), timeout=10) as sock:
            sock.sendall(request_bytes)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 %d " % status), reply[:200]
        assert json.loads(reply.partition(b"\r\n\r\n")[2])["error"]
        assert client.health()["ok"] is True

