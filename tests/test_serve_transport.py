"""The serve transport: persistent connections, two requests per job, and
a daemon that never parses a leftover request body as the next request.

Everything runs against an in-process :class:`PastaDaemon`.  Server-side
connections are counted by wrapping ``_ServeServer.process_request`` (called
once per accepted TCP connection); client-side HTTP requests by wrapping
``ServeClient._open`` (called once per request).
"""

from __future__ import annotations

import http.client
import itertools
import json
import threading
import time
from pathlib import Path

import pytest

import repro
from repro import pasta
from repro.api.spec import ProfileSpec
from repro.core.serialization import json_sanitize, stable_json_dumps
from repro.serve import PastaDaemon, ServeClient, ServeError, connect
from repro.serve.daemon import MAX_BODY_BYTES, _ServeServer
from repro.serve.protocol import TERMINAL_STATES

SPEC = {"model": "alexnet", "tools": ["hotness"], "iterations": 1}

CAMPAIGN = {
    "name": "transport-test",
    "models": ["alexnet"],
    "tools": [["hotness"], ["kernel_frequency"]],
    "iterations": 1,
}

#: Fields of a job's status that ``result().status`` must carry.
STATUS_FIELDS = ("job_id", "namespace", "kind", "state", "digest", "cache_hit",
                 "created_unix", "started_unix", "finished_unix", "error",
                 "events", "resumed")


@pytest.fixture()
def accepted(monkeypatch) -> list[tuple[str, int]]:
    """Client addresses of every connection any daemon accepts."""
    addresses: list[tuple[str, int]] = []
    original = _ServeServer.process_request

    def counting(self, request, client_address):
        addresses.append(client_address)
        return original(self, request, client_address)

    monkeypatch.setattr(_ServeServer, "process_request", counting)
    return addresses


@pytest.fixture()
def requests_sent(monkeypatch) -> list[str]:
    """``"METHOD path"`` of every HTTP request a client sends."""
    sent: list[str] = []
    original = ServeClient._open

    def counting(self, method, path, *args, **kwargs):
        sent.append(f"{method} {path}")
        return original(self, method, path, *args, **kwargs)

    monkeypatch.setattr(ServeClient, "_open", counting)
    return sent


@pytest.fixture()
def daemon(tmp_path: Path, accepted):
    with PastaDaemon(tmp_path / "serve", workers=2) as running:
        yield running


def local_reports(spec: dict) -> str:
    reports = pasta.run(ProfileSpec.from_dict(spec)).reports()
    return stable_json_dumps(json_sanitize(reports))


# ---------------------------------------------------------------------- #
# persistent connections
# ---------------------------------------------------------------------- #
class TestConnections:
    def test_sequential_round_trips_share_one_connection(
        self, daemon: PastaDaemon, accepted
    ) -> None:
        client = connect(daemon.url)
        for iterations in (1, 1, 2, 1, 2):
            result = client.submit({**SPEC, "iterations": iterations}).result(timeout=120)
            assert result.reports()
        client.health()
        assert len(accepted) == 1

    def test_abandoned_stream_then_request(self, daemon: PastaDaemon, accepted) -> None:
        client = connect(daemon.url)
        handle = client.submit(SPEC)
        handle.result(timeout=120)
        for record in handle.stream():
            assert record["event"] == "queued"
            break
        # The half-read stream's connection is not reused ...
        status = handle.status()
        assert status["type"] == "job" and status["state"] == "done"
        assert len(accepted) == 2
        # ... and the fresh one carries on as usual.
        assert client.submit(SPEC).result(timeout=120).cache_hit is True
        assert [r["type"] for r in handle.stream()] == ["job", "job", "result", "job"]
        assert len(accepted) == 2

    def test_restarted_daemon_is_reached_by_an_old_client(
        self, tmp_path: Path, accepted
    ) -> None:
        data = tmp_path / "serve"
        with PastaDaemon(data, workers=1) as first:
            port = first.port
            client = connect(first.url)
            cold = client.submit(SPEC).result(timeout=120)
        # The client still holds its idle connection to the closed daemon.
        with PastaDaemon(data, workers=1, port=port):
            warm = client.submit(SPEC).result(timeout=120)
            assert warm.cache_hit is True
            assert warm.digest == cold.digest
            assert stable_json_dumps(warm.reports()) == stable_json_dumps(cold.reports())
        assert len(accepted) == 2

    def test_a_stale_connection_is_retried_once(
        self, tmp_path: Path, accepted
    ) -> None:
        with PastaDaemon(tmp_path / "serve", workers=1) as daemon:
            port = daemon.port
            client = connect(daemon.url)
            client.health()
        with PastaDaemon(tmp_path / "serve", workers=1, port=port):
            assert client.health()["status"] == "ok"
            assert len(accepted) == 2
        # A fresh connection that fails is not retried: it raises.
        with pytest.raises(ServeError, match="cannot reach") as info:
            client.health()
        assert info.value.code is None

    def test_requests_inside_a_stream_loop(self, daemon: PastaDaemon) -> None:
        client = connect(daemon.url)
        handle = client.submit(SPEC)
        records = []
        for record in handle.stream():
            records.append(record)
            assert handle.status()["job_id"] == handle.id
            client.health()
        assert [r["event"] for r in records if r["type"] == "job"] == [
            "queued", "started", "finished"]
        assert records[-1]["state"] == "done"

    def test_cancel_inside_a_stream_loop(self, daemon: PastaDaemon) -> None:
        handle = connect(daemon.url).submit(CAMPAIGN)
        records = []
        for record in handle.stream():
            if not records:
                assert handle.cancel()["job_id"] == handle.id
            records.append(record)
        assert records[-1]["type"] == "job"
        assert records[-1]["state"] in TERMINAL_STATES

    def test_two_streams_interleaved_in_one_thread(
        self, daemon: PastaDaemon, accepted
    ) -> None:
        client = connect(daemon.url)
        handles = [client.submit(SPEC), client.submit({**SPEC, "iterations": 2})]
        streams: list[list[dict]] = [[], []]
        for pair in itertools.zip_longest(*(h.stream() for h in handles)):
            for index, record in enumerate(pair):
                if record is not None:
                    streams[index].append(record)
        for handle, records in zip(handles, streams):
            assert {r["job_id"] for r in records} == {handle.id}
            assert [r["type"] for r in records] == ["job", "job", "result", "job"]
            assert records[-1]["state"] == "done"
        # The second stream needed a connection of its own.
        assert len(accepted) == 2
        assert client.health()["status"] == "ok"
        assert len(accepted) == 2

    def test_a_submit_in_flight_when_the_daemon_closes_is_answered_once(
        self, tmp_path: Path, monkeypatch
    ) -> None:
        data = tmp_path / "serve"
        daemon = PastaDaemon(data, workers=1).start()
        client = connect(daemon.url)
        client.health()  # the submit below goes out on a reused connection
        submitted, release = threading.Event(), threading.Event()
        submit = daemon.manager.submit

        def slow_submit(*args, **kwargs):
            job = submit(*args, **kwargs)  # accepted and journaled
            submitted.set()
            release.wait(30)
            return job

        monkeypatch.setattr(daemon.manager, "submit", slow_submit)
        outcome: list[object] = []

        def submit_spec() -> None:
            try:
                outcome.append(client.submit(SPEC))
            except ServeError as error:
                outcome.append(error)

        submitter = threading.Thread(target=submit_spec)
        closer = threading.Thread(target=daemon.close)
        submitter.start()
        try:
            assert submitted.wait(30)
            closer.start()
            deadline = time.monotonic() + 30
            while not daemon._server._closing and time.monotonic() < deadline:
                time.sleep(0.01)
            assert daemon._server._closing  # connections are being closed
        finally:
            release.set()
            submitter.join(30)
            if closer.is_alive() or not closer.ident:
                closer.join(30)
            daemon.close()
        # The daemon answered the submit it had acted on, so the client did
        # not resend it: the restarted daemon holds exactly one job.
        assert len(outcome) == 1 and not isinstance(outcome[0], ServeError)
        with PastaDaemon(data, workers=1) as reborn:
            jobs = connect(reborn.url).jobs()
            assert [job["job_id"] for job in jobs] == [outcome[0].id]

    def test_one_client_from_two_threads(self, daemon: PastaDaemon, accepted) -> None:
        specs = [SPEC, {**SPEC, "tools": ["kernel_frequency"]}]
        expected = [local_reports(spec) for spec in specs]
        client = connect(daemon.url)
        outcomes: list[list[str]] = [[], []]
        errors: list[BaseException] = []
        barrier = threading.Barrier(2)

        def loop(index: int) -> None:
            try:
                barrier.wait(timeout=30)
                for _ in range(6):
                    result = client.submit(specs[index]).result(timeout=120)
                    outcomes[index].append(
                        stable_json_dumps(json_sanitize(result.reports())))
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [threading.Thread(target=loop, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not errors
        for index in range(2):
            assert outcomes[index] == [expected[index]] * 6
        assert len(accepted) == 2  # one connection per client thread


# ---------------------------------------------------------------------- #
# two requests per job
# ---------------------------------------------------------------------- #
class TestRequestsPerJob:
    def test_profile_job_costs_two_requests(
        self, daemon: PastaDaemon, requests_sent
    ) -> None:
        client = connect(daemon.url)
        for _ in range(2):  # cold, then warm
            requests_sent.clear()
            handle = client.submit(SPEC)
            assert handle.result(timeout=120).reports()
            assert requests_sent == [
                "POST /v1/jobs", f"GET /v1/jobs/{handle.id}/stream?from=0"
            ]

    def test_campaign_job_costs_two_requests_plus_cells(
        self, daemon: PastaDaemon, requests_sent
    ) -> None:
        result = connect(daemon.url).submit(CAMPAIGN).result(timeout=300)
        assert len(requests_sent) == 2
        records = [result.cell_record(str(cell["digest"])) for cell in result.cells]
        assert all(record is not None for record in records)
        assert len(requests_sent) == 2 + len(result.cells) == 4

    def test_results_match_status_for_warm_cold_and_campaign(
        self, daemon: PastaDaemon
    ) -> None:
        client = connect(daemon.url)
        expected = local_reports(SPEC)
        for cache_hit in (False, True):  # cold, then warm
            handle = client.submit(SPEC)
            result = handle.result(timeout=120)
            assert result.cache_hit is cache_hit
            assert result.digest == ProfileSpec.from_dict(SPEC).digest(repro.__version__)
            assert stable_json_dumps(json_sanitize(result.reports())) == expected
            status = handle.status()
            assert {f: result.status[f] for f in STATUS_FIELDS} == {
                f: status[f] for f in STATUS_FIELDS}
            assert result.status["event"] == "finished"

        for cache_hit in (False, True):
            handle = client.submit(CAMPAIGN)
            result = handle.result(timeout=300)
            assert result.status["cache_hit"] is cache_hit
            assert (result.total, result.failed) == (2, 0)
            assert result.executed == (0 if cache_hit else 1)
            status = handle.status()
            assert result.status["kind"] == "campaign"
            assert {f: result.status[f] for f in STATUS_FIELDS} == {
                f: status[f] for f in STATUS_FIELDS}

    def test_every_lifecycle_record_carries_the_status_fields(
        self, daemon: PastaDaemon
    ) -> None:
        handle = connect(daemon.url).submit(SPEC)
        handle.result(timeout=120)
        records = list(handle.stream())
        lifecycle = [r for r in records if r["type"] == "job"]
        assert [r["event"] for r in lifecycle] == ["queued", "started", "finished"]
        for position, record in enumerate(records, start=1):
            if record["type"] == "job":
                assert set(STATUS_FIELDS) <= set(record)
                assert record["events"] == position  # counts itself
                assert record["resumed"] is False
        assert lifecycle[-1]["finished_unix"] is not None


# ---------------------------------------------------------------------- #
# the daemon never leaves an unread body on a kept-alive connection
# ---------------------------------------------------------------------- #
class TestUnreadBody:
    @staticmethod
    def follow_up_is_clean(connection: http.client.HTTPConnection) -> None:
        """The next request on ``connection`` succeeds, or finds it closed."""
        try:
            connection.request("GET", "/v1/healthz")
            response = connection.getresponse()
        except (http.client.RemoteDisconnected, ConnectionError):
            return
        body = response.read()
        assert response.status == 200, body[:200]
        assert json.loads(body)["type"] == "health"

    def test_route_miss_with_a_body(self, daemon: PastaDaemon) -> None:
        connection = http.client.HTTPConnection(daemon.host, daemon.port, timeout=10)
        connection.request("PUT", "/v1/nope", body=json.dumps(SPEC).encode(),
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        assert response.status == 404
        assert json.loads(response.read())["type"] == "error"
        assert response.will_close
        self.follow_up_is_clean(connection)
        connection.close()

    def test_oversized_body(self, daemon: PastaDaemon) -> None:
        connection = http.client.HTTPConnection(daemon.host, daemon.port, timeout=10)
        connection.putrequest("POST", "/v1/jobs")
        connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
        connection.endheaders(json.dumps(SPEC).encode() + b" " * 4096)
        response = connection.getresponse()
        assert response.status == 400
        assert "exceeds" in json.loads(response.read())["error"]
        assert response.will_close
        self.follow_up_is_clean(connection)
        connection.close()

    def test_read_bodies_keep_the_connection(self, daemon: PastaDaemon) -> None:
        connection = http.client.HTTPConnection(daemon.host, daemon.port, timeout=10)
        connection.request("POST", "/v1/jobs", body=b'{"nonsense": true}',
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        assert response.status == 400  # a bad spec, but its body was read
        response.read()
        assert not response.will_close
        self.follow_up_is_clean(connection)
        connection.close()
