"""End-to-end tests over real HTTP: the full job API on an ephemeral port."""

import json
import socket
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.jobs import build_job, normalize_payload
from repro.server import JobScheduler, LinkageServer


@pytest.fixture
def server():
    instance = LinkageServer(port=0, max_workers=2)
    instance.start()
    yield instance
    instance.shutdown()


def _request(url, method="GET", body=None):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def _request_error(url, method="GET", raw_body=None):
    request = urllib.request.Request(url, data=raw_body, method=method)
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    error = excinfo.value
    return error.code, json.loads(error.read().decode("utf-8"))


def _wait_state(server, job_id, states, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, body = _request(f"{server.url}/jobs/{job_id}")
        if body["state"] in states:
            return body
        time.sleep(0.01)
    raise AssertionError(f"{job_id} never reached {states}")


def _reference_lines(payload):
    handle = build_job(normalize_payload(payload))
    return [json.dumps(match.to_json()) for match in handle.stream_matches()]


class TestLifecycleOverHttp:
    def test_submit_stream_and_status(self, server, small_payload):
        status, body = _request(
            f"{server.url}/jobs", method="POST", body=small_payload
        )
        assert status == 201
        job_id = body["id"]
        assert body["spec"]["shards"] == small_payload["shards"]

        with urllib.request.urlopen(
            f"{server.url}/jobs/{job_id}/matches", timeout=60
        ) as response:
            assert response.status == 200
            assert response.headers["Content-Type"] == "application/x-ndjson"
            lines = response.read().decode("utf-8").splitlines()
        # The NDJSON body is byte-identical to `repro link --stream`.
        assert lines == _reference_lines(small_payload)

        body = _wait_state(server, job_id, {"finished"})
        assert body["result_size"] == len(lines)
        assert body["progress"]["steps"] > 0

    def test_unsharded_job_over_http(self, server, tiny_payload):
        _, body = _request(f"{server.url}/jobs", method="POST", body=tiny_payload)
        with urllib.request.urlopen(
            f"{server.url}/jobs/{body['id']}/matches", timeout=60
        ) as response:
            lines = response.read().decode("utf-8").splitlines()
        assert lines == _reference_lines(tiny_payload)
        assert all('"shard"' not in line for line in lines)

    def test_job_listing(self, server, tiny_payload):
        _request(f"{server.url}/jobs", method="POST", body=tiny_payload)
        _request(f"{server.url}/jobs", method="POST", body=tiny_payload)
        _, body = _request(f"{server.url}/jobs")
        assert [job["id"] for job in body["jobs"]] == ["job-1", "job-2"]

    def test_cancel_over_http(self, server, small_payload):
        _, body = _request(f"{server.url}/jobs", method="POST", body=small_payload)
        job_id = body["id"]
        status, body = _request(f"{server.url}/jobs/{job_id}", method="DELETE")
        assert status == 202
        assert body["state"] in ("cancelled", "running", "finished")
        body = _wait_state(server, job_id, {"cancelled", "finished"})
        assert body["id"] == job_id


class TestOperationalEndpoints:
    def test_healthz(self, server):
        status, body = _request(f"{server.url}/healthz")
        assert status == 200
        assert body == {"status": "ok"}

    def test_metrics_reflect_activity(self, server, tiny_payload):
        _, body = _request(f"{server.url}/jobs", method="POST", body=tiny_payload)
        _wait_state(server, body["id"], {"finished"})
        with urllib.request.urlopen(f"{server.url}/metrics", timeout=30) as resp:
            assert resp.headers["Content-Type"].startswith("text/plain")
            text = resp.read().decode("utf-8")
        metrics = dict(
            line.split(" ", 1) for line in text.strip().splitlines()
        )
        assert metrics["jobs_submitted"] == "1"
        assert metrics["jobs_finished"] == "1"
        assert metrics["workers"] == "2"


class TestErrorMapping:
    def test_unknown_job_is_404(self, server):
        for method, suffix in (
            ("GET", ""),
            ("GET", "/matches"),
            ("DELETE", ""),
        ):
            code, body = _request_error(
                f"{server.url}/jobs/job-404{suffix}", method=method
            )
            assert code == 404
            assert "error" in body

    def test_unknown_route_is_404(self, server):
        code, _ = _request_error(f"{server.url}/nope")
        assert code == 404

    def test_malformed_json_is_400(self, server):
        code, body = _request_error(
            f"{server.url}/jobs", method="POST", raw_body=b"{not json"
        )
        assert code == 400
        assert "error" in body

    @pytest.mark.parametrize(
        "head, body",
        [
            (b"Content-Length: abc\r\n", b"{}"),
            (b"Content-Length: 3\r\n", b"\x80ab"),  # not UTF-8
        ],
        ids=["non-integer-length", "non-utf8-body"],
    )
    def test_malformed_raw_request_is_400(self, server, head, body):
        """Requests no HTTP client library would send still get a JSON 400."""
        address = urllib.parse.urlsplit(server.url)
        with socket.create_connection(
            (address.hostname, address.port), timeout=30
        ) as connection:
            connection.sendall(
                b"POST /jobs HTTP/1.1\r\nHost: localhost\r\n" + head
                + b"Connection: close\r\n\r\n" + body
            )
            reply = b""
            while chunk := connection.recv(65536):
                reply += chunk
        status_line, _, rest = reply.partition(b"\r\n")
        assert status_line.split()[1] == b"400"
        assert "error" in json.loads(rest.partition(b"\r\n\r\n")[2])

    def test_invalid_payload_is_400(self, server):
        code, body = _request_error(
            f"{server.url}/jobs",
            method="POST",
            raw_body=json.dumps({"attribute": "location"}).encode("utf-8"),
        )
        assert code == 400
        assert "left" in body["error"]

    @pytest.mark.parametrize(
        "key, removed, valid",
        [
            pytest.param("backend", name, ("process", "serial"), id=name)
            for name in ("thread", "async")
        ] + [
            pytest.param("partitioner", name, ("gram-prefix", "hash"), id=name)
            for name in ("gram", "round-robin", "range")
        ],
    )
    def test_removed_backend_is_400(
        self, server, tiny_payload, key, removed, valid
    ):
        """A job naming a removed backend or partitioner never enters the
        queue (or a job store): it is refused at submission with the
        valid names."""
        payload = dict(tiny_payload, shards=2, **{key: removed})
        code, body = _request_error(
            f"{server.url}/jobs",
            method="POST",
            raw_body=json.dumps(payload).encode("utf-8"),
        )
        assert code == 400
        assert repr(removed) in body["error"]
        assert all(name in body["error"] for name in valid)
        _, listing = _request(f"{server.url}/jobs")
        assert listing["jobs"] == []

    def test_baseline_matches_is_409(self, server, tiny_payload):
        payload = dict(tiny_payload)
        payload["strategy"] = "exact"
        del payload["thresholds"]
        _, body = _request(f"{server.url}/jobs", method="POST", body=payload)
        _wait_state(server, body["id"], {"finished"})
        code, body = _request_error(f"{server.url}/jobs/{body['id']}/matches")
        assert code == 409

    def test_queue_full_is_429(self, tiny_payload):
        # Workers never started: the first job stays open and fills the
        # only queue slot deterministically.
        scheduler = JobScheduler(max_workers=1, max_queued=1, autostart=False)
        instance = LinkageServer(port=0, scheduler=scheduler)
        instance.start()
        try:
            _request(f"{instance.url}/jobs", method="POST", body=tiny_payload)
            code, body = _request_error(
                f"{instance.url}/jobs",
                method="POST",
                raw_body=json.dumps(tiny_payload).encode("utf-8"),
            )
            assert code == 429
            assert "queue depth cap" in body["error"]
        finally:
            instance.shutdown()
