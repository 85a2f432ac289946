#!/usr/bin/env python3
"""Linkage-as-a-service tour: embed the HTTP server, drive it as a client.

``repro.server`` turns the jobs layer into a long-lived service: jobs
are submitted as JSON over HTTP, scheduled fairly across a shared pool
of worker processes, streamed as NDJSON while they run, and survive
restarts when the server is given a disk-backed store.  This example embeds a
:class:`~repro.server.LinkageServer` on an ephemeral port and walks the
whole client surface with nothing but the standard library:

1. ``POST /jobs`` — submit a sharded adaptive job (inline tables);
2. ``GET /jobs/{id}/matches`` — stream NDJSON matches as they are found
   (byte-identical to ``repro link --stream`` for the same spec);
3. ``GET /jobs/{id}`` — live progress, then final statistics;
4. ``DELETE /jobs/{id}`` — cancel a second, lower-priority job mid-run;
5. ``GET /metrics`` — the scheduler's counters.

The same server runs standalone as ``repro serve`` (add ``--store
jobs.jsonl`` and interrupted jobs resume automatically after a restart).

Run with::

    python examples/serve_and_stream.py
"""

from __future__ import annotations

import json
import time
import urllib.request

from repro.datagen.testcases import STANDARD_TEST_CASES, generate_test_case
from repro.server import LinkageServer


def build_payload():
    dataset = generate_test_case(
        STANDARD_TEST_CASES["uniform_child"], parent_size=120, child_size=200
    )
    print(
        f"workload: {len(dataset.parent)} parent rows, "
        f"{len(dataset.child)} child rows\n"
    )

    def inline(table):
        return {
            "columns": list(table.schema.attributes),
            "rows": [list(record.values) for record in table],
        }

    return {
        "left": inline(dataset.parent),
        "right": inline(dataset.child),
        "attribute": "location",
        "shards": 3,
        "thresholds": {"delta_adapt": 25, "window_size": 25},
    }


def request(url, method="GET", body=None):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(req, timeout=60) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def main():
    payload = build_payload()
    server = LinkageServer(port=0, max_workers=2)
    server.start()
    print(f"server listening on {server.url}\n")
    try:
        # 1. Submit over HTTP.
        status, job = request(f"{server.url}/jobs", method="POST", body=payload)
        print(f"POST /jobs -> {status}: {job['id']} is {job['state']}")

        # 2. Stream the NDJSON match feed while the job runs.
        lines = []
        with urllib.request.urlopen(
            f"{server.url}/jobs/{job['id']}/matches", timeout=120
        ) as stream:
            for raw in stream:
                lines.append(json.loads(raw.decode("utf-8")))
                if len(lines) == 1:
                    print(f"first streamed match: {lines[0]}")
        print(f"streamed {len(lines)} NDJSON matches\n")

        # 3. The status body: final state, progress and statistics.
        while True:
            _, body = request(f"{server.url}/jobs/{job['id']}")
            if body["state"] in ("finished", "cancelled", "failed"):
                break
            time.sleep(0.05)
        print(
            f"{job['id']} finished: result_size={body['result_size']}, "
            f"steps={body['progress']['steps']}, "
            f"shards={body['progress']['shards_done']}"
        )

        # 4. Cancel a second job mid-run (DELETE answers 202 immediately).
        _, second = request(f"{server.url}/jobs", method="POST", body=payload)
        status, body = request(
            f"{server.url}/jobs/{second['id']}", method="DELETE"
        )
        print(f"DELETE /jobs/{second['id']} -> {status} ({body['state']})")

        # 5. The scheduler's counters.
        with urllib.request.urlopen(f"{server.url}/metrics", timeout=30) as resp:
            metrics = resp.read().decode("utf-8")
        print("\nGET /metrics:")
        for line in metrics.strip().splitlines():
            print(f"  {line}")
    finally:
        server.shutdown()
    print("\nserver stopped cleanly")


if __name__ == "__main__":
    main()
