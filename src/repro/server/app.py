"""The HTTP face of linkage-as-a-service (stdlib only, zero deps).

A thin translation layer: every route parses bytes, calls one
:class:`~repro.server.scheduler.JobScheduler` method and serialises the
answer through :mod:`repro.server.wire` — no linkage logic lives here.

====================  ======================================================
Route                 Meaning
====================  ======================================================
``POST /jobs``        Submit a JSON job payload → 201 + status body
                      (400 invalid payload, 429 queue full)
``GET /jobs``         List every known job's status body
``GET /jobs/{id}``    One job's status body (404 unknown)
``GET /jobs/{id}/matches``  The job's NDJSON match feed, chunked as
                      matches are found — byte-identical to
                      ``repro link --stream`` (409 if the job has no feed)
``DELETE /jobs/{id}`` Cancel → 202 + status body
``GET /healthz``      Liveness probe
``GET /metrics``      Plain-text counters, one ``name value`` per line
====================  ======================================================

Built on :class:`http.server.ThreadingHTTPServer`: one thread per
connection, which is exactly right here because the expensive work runs
on the scheduler's workers — request threads only parse, enqueue and
stream buffers.  ``/matches`` responses use HTTP/1.1 chunked transfer
encoding written by hand (one chunk per engine batch), so clients see
matches long before the job finishes without the server ever buffering
the whole feed.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from repro.jobs.serialization import PayloadError
from repro.server.scheduler import (
    JobScheduler,
    MatchesUnavailable,
    QueueFull,
    UnknownJob,
)
from repro.server.wire import error_body, match_line, render_metrics

__all__ = ["LinkageRequestHandler", "LinkageServer"]

#: Largest accepted request body (a submitted job spec), in bytes.
MAX_BODY_BYTES = 32 * 1024 * 1024


class LinkageRequestHandler(BaseHTTPRequestHandler):
    """Route HTTP requests to the server's scheduler (see module docstring)."""

    #: Chunked transfer encoding requires 1.1 (and keeps keep-alive).
    protocol_version = "HTTP/1.1"
    server_version = "repro-linkage"

    # The scheduler rides on the server object (set by LinkageServer).
    @property
    def scheduler(self) -> JobScheduler:
        return self.server.scheduler  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # -- response plumbing -----------------------------------------------------------

    def _send_json(self, status: int, body: object) -> None:
        data = (json.dumps(body) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _send_text(self, status: int, text: str) -> None:
        data = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, error_body(message))

    def _read_body(self) -> Optional[bytes]:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            # The body's extent is unknown, so the connection cannot be
            # reused for another request.
            self.close_connection = True
            self._send_error_json(400, "Content-Length must be an integer")
            return None
        if length <= 0:
            self._send_error_json(400, "a JSON request body is required")
            return None
        if length > MAX_BODY_BYTES:
            self._send_error_json(
                413, f"request body exceeds {MAX_BODY_BYTES} bytes"
            )
            return None
        return self.rfile.read(length)

    def _route(self) -> Tuple[str, ...]:
        path = self.path.split("?", 1)[0]
        return tuple(part for part in path.split("/") if part)

    # -- verbs -----------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server's naming
        parts = self._route()
        try:
            if parts == ("healthz",):
                self._send_json(200, {"status": "ok"})
            elif parts == ("metrics",):
                self._send_text(200, render_metrics(self.scheduler.counters()))
            elif parts == ("jobs",):
                bodies = [
                    self.scheduler.describe(job_id)
                    for job_id in self.scheduler.job_ids()
                ]
                self._send_json(200, {"jobs": bodies})
            elif len(parts) == 2 and parts[0] == "jobs":
                self._send_json(200, self.scheduler.describe(parts[1]))
            elif len(parts) == 3 and parts[:1] == ("jobs",) and parts[2] == "matches":
                self._stream_matches(parts[1])
            else:
                self._send_error_json(404, f"no such route: GET {self.path}")
        except UnknownJob:
            self._send_error_json(404, f"no such job: {parts[1]}")
        except MatchesUnavailable as error:
            self._send_error_json(409, str(error))

    def do_POST(self) -> None:  # noqa: N802
        if self._route() != ("jobs",):
            self._send_error_json(404, f"no such route: POST {self.path}")
            return
        body = self._read_body()
        if body is None:
            return
        try:
            payload = json.loads(body)
        except ValueError as error:  # bad JSON, or bytes that are not UTF-8
            self._send_error_json(400, f"invalid JSON body: {error}")
            return
        try:
            job_id = self.scheduler.submit(payload)
        except PayloadError as error:
            self._send_error_json(400, str(error))
            return
        except QueueFull as error:
            self._send_error_json(429, str(error))
            return
        self._send_json(201, self.scheduler.describe(job_id))

    def do_DELETE(self) -> None:  # noqa: N802
        parts = self._route()
        if len(parts) != 2 or parts[0] != "jobs":
            self._send_error_json(404, f"no such route: DELETE {self.path}")
            return
        try:
            self.scheduler.cancel(parts[1])
        except UnknownJob:
            self._send_error_json(404, f"no such job: {parts[1]}")
            return
        self._send_json(202, self.scheduler.describe(parts[1]))

    # -- the streaming endpoint ------------------------------------------------------

    def _stream_matches(self, job_id: str) -> None:
        """Chunk the job's NDJSON feed out as the scheduler produces it."""
        stream = self.scheduler.stream_matches(job_id)
        # Pull the first match *before* committing the 200: the
        # generator validates lazily, so an unknown or unstreamable job
        # raises here and still gets its clean JSON error status.
        first = next(stream, None)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        try:
            if first is not None:
                self._write_chunk(match_line(first))
            for match in stream:
                self._write_chunk(match_line(match))
            self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up mid-stream; the job keeps running (a
            # feed is an observer, not the run itself).
            stream.close()

    def _write_chunk(self, data: bytes) -> None:
        self.wfile.write(f"{len(data):X}\r\n".encode("ascii"))
        self.wfile.write(data)
        self.wfile.write(b"\r\n")
        self.wfile.flush()


class LinkageServer:
    """The embeddable server: a scheduler wired to a threading HTTP server.

    ``port=0`` binds an ephemeral port (read it back from :attr:`port`) —
    what the tests and the CI smoke use.  :meth:`serve_forever` blocks;
    :meth:`start` runs it on a daemon thread instead; :meth:`shutdown`
    stops the HTTP loop first (no new work can arrive), then the
    scheduler (running jobs observe their cancel tokens), then the store.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        scheduler: Optional[JobScheduler] = None,
        verbose: bool = False,
        **scheduler_options: object,
    ) -> None:
        self.scheduler = (
            scheduler if scheduler is not None else JobScheduler(**scheduler_options)
        )
        self._httpd = ThreadingHTTPServer((host, port), LinkageRequestHandler)
        self._httpd.daemon_threads = True
        self._httpd.scheduler = self.scheduler  # type: ignore[attr-defined]
        self._httpd.verbose = verbose  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (the resolved one when constructed with 0)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` (blocks the calling thread)."""
        self._httpd.serve_forever(poll_interval=0.1)

    def start(self) -> "LinkageServer":
        """Serve on a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="linkage-http", daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop accepting requests, then stop the scheduler and store."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.scheduler.shutdown(timeout=10.0)
