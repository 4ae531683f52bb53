"""Gateway CI smoke: HTTP answers must equal the embedded client's.

Starts ``python -m repro serve`` on a toy dataset analog as a real
subprocess, waits for ``/v1/healthz``, requests a certified top-k over
the socket, and asserts it is **bit-for-bit identical** (vertex ids and
float estimates) to the answer the embedded :class:`repro.api.Client`
produces for the same snapshot version — the service bootstrap
(:func:`repro.serve.workload_service`) is deterministic, so two
processes built from the same arguments must serve the same floats.
Then the keep-alive leg: 200 FRESH reads on one ``http.client``
connection, each still that answer, in under two seconds — a response
that leaves as two segments costs a 40 ms delayed ACK per request
(8.8 s here), so the stall cannot come back unnoticed. Then the
concurrent-cold leg: two threads, each on its own keep-alive connection,
read 64 distinct sources nobody has read — every read a from-scratch
push the server runs with its gateway lock released, side by side with
the other thread's — and every answer must be bit-identical to the
embedded twin's, read one at a time. Then the prefetch leg: one
``{"op": "prefetch"}`` for 8 sources nobody has read, then a read of
each — every read a hit on the state the prefetch pushed, bit-identical
to the twin's, with ``cold_admissions`` up by exactly 8 and
``admission_races`` still 0.
Also exercises the 4xx paths: malformed JSON, unknown route, unknown op.

Run from the repository root:  PYTHONPATH=src python scripts/gateway_smoke.py
CI runs this after the test suite (.github/workflows/ci.yml).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from http.client import HTTPConnection
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.api.http import HttpClient  # noqa: E402
from repro.serve import workload_service  # noqa: E402
from repro.errors import RequestError, VertexError  # noqa: E402

DATASET = "youtube"
PORT = 8711
K = 5
KEEPALIVE_READS = 200
KEEPALIVE_BUDGET_S = 2.0
COLD_THREADS = 2
COLD_READS = 64  # per thread
PREFETCHED = 8


def spread(candidates: list[int], wanted: int) -> list[int]:
    """``wanted`` ids spread evenly over ``candidates``."""
    return candidates[:: max(1, len(candidates) // wanted)][:wanted]


def wait_healthy(base: str, deadline_s: float = 60.0) -> None:
    start = time.time()
    while time.time() - start < deadline_s:
        try:
            with urllib.request.urlopen(f"{base}/v1/healthz", timeout=2) as response:
                if json.loads(response.read()).get("status") == "ok":
                    return
        except (urllib.error.URLError, ConnectionError):
            time.sleep(0.3)
    raise SystemExit(f"server on {base} never became healthy")


def cold_reads_concurrently(service, cold: list[int]) -> int:
    """The concurrent-cold leg; returns 1 on a mismatch (0 when all agree)."""
    got: dict[int, list] = {}
    errors: list[BaseException] = []

    def reader(sources: list[int]) -> None:
        conn = HTTPConnection("127.0.0.1", PORT, timeout=30)
        try:
            for source in sources:
                conn.request("POST", "/v1/query", body=json.dumps({"source": source, "k": K}))
                payload = json.loads(conn.getresponse().read())
                if not payload.get("cold"):
                    raise AssertionError(f"source {source} was not a cold read: {payload}")
                got[source] = [(e["vertex"], e["estimate"]) for e in payload["entries"]]
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)
        finally:
            conn.close()

    readers = [
        threading.Thread(target=reader, args=(cold[i::COLD_THREADS],))
        for i in range(COLD_THREADS)
    ]
    start = time.perf_counter()
    for thread in readers:
        thread.start()
    for thread in readers:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        print(f"concurrent cold reads failed: {errors[0]!r}", file=sys.stderr)
        return 1
    for source in cold:  # the twin, one read at a time
        want = [(e.vertex, e.estimate) for e in service.api.top_k(source, k=K).entries]
        if got[source] != want:
            print(f"cold top-{K} of {source} diverged:\n  http     {got[source]}"
                  f"\n  embedded {want}", file=sys.stderr)
            return 1
    print(f"{len(cold)} cold reads on {COLD_THREADS} keep-alive connections in"
          f" {elapsed:.2f} s, each bit-identical to the embedded twin")
    return 0


def prefetch_then_read(http, service, sources: list[int]) -> int:
    """The prefetch leg; returns 1 on a failure (0 when all is well)."""
    before = http.stats()["stats"]
    ack = http.query({"op": "prefetch", "sources": sources})
    if ack.get("admitted") != len(sources):
        print(f"prefetch of {len(sources)} unread sources: {ack}", file=sys.stderr)
        return 1
    for source in sources:
        payload = http.query({"source": source, "k": K})
        if payload["cold"]:
            print(f"prefetched source {source} read cold: {payload}", file=sys.stderr)
            return 1
        got = [(e["vertex"], e["estimate"]) for e in payload["entries"]]
        want = [(e.vertex, e.estimate) for e in service.api.top_k(source, k=K).entries]
        if got != want:
            print(f"prefetched top-{K} of {source} diverged:\n  http     {got}"
                  f"\n  embedded {want}", file=sys.stderr)
            return 1
    after = http.stats()["stats"]
    grew = after["cold_admissions"] - before["cold_admissions"]
    if grew != len(sources) or after["admission_races"] != 0:
        print(f"prefetch leg: cold_admissions grew by {grew} (want"
              f" {len(sources)}), admission_races {after['admission_races']}",
              file=sys.stderr)
        return 1
    print(f"prefetch of {len(sources)} sources, then each read warm and"
          " bit-identical to the embedded twin")
    return 0


def main() -> int:
    from repro.kernels import describe

    info = describe()
    print(f"kernel backend: {info['backend']} ({info['reason']})")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", DATASET, "--port", str(PORT)],
        env=env,
        cwd=REPO,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    base = f"http://127.0.0.1:{PORT}"
    try:
        wait_healthy(base)
        http = HttpClient(base)

        # The embedded twin: same deterministic bootstrap, same query.
        service, prepared = workload_service(DATASET)
        embedded = service.api.top_k(prepared.source, k=K)

        answer = http.query({"source": prepared.source, "k": K})
        if answer["snapshot_version"] != embedded.snapshot_version:
            print("snapshot versions diverged", file=sys.stderr)
            return 1
        got = [(e["vertex"], e["estimate"]) for e in answer["entries"]]
        want = [(e.vertex, e.estimate) for e in embedded.entries]
        if got != want:
            print(f"top-{K} mismatch:\n  http     {got}\n  embedded {want}",
                  file=sys.stderr)
            return 1
        print(f"top-{K} over HTTP is bit-identical to the embedded client: {got}")

        # The keep-alive leg: the same read, many times, one connection.
        body = json.dumps({"source": prepared.source, "k": K})
        conn = HTTPConnection("127.0.0.1", PORT, timeout=10)
        try:
            start = time.perf_counter()
            for _ in range(KEEPALIVE_READS):
                conn.request("POST", "/v1/query", body=body)
                entries = json.loads(conn.getresponse().read())["entries"]
                if [(e["vertex"], e["estimate"]) for e in entries] != want:
                    print("keep-alive answer diverged", file=sys.stderr)
                    return 1
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        print(f"{KEEPALIVE_READS} keep-alive reads in {elapsed:.2f} s"
              f" ({1e3 * elapsed / KEEPALIVE_READS:.2f} ms each)")
        if elapsed >= KEEPALIVE_BUDGET_S:
            print(f"keep-alive reads took {elapsed:.2f} s (budget"
                  f" {KEEPALIVE_BUDGET_S} s): is every response one send?",
                  file=sys.stderr)
            return 1

        unread = [v for v in sorted(service.graph.vertices()) if v != prepared.source]
        cold = spread(unread, COLD_THREADS * COLD_READS)
        if cold_reads_concurrently(service, cold):
            return 1
        taken = set(cold)
        unread = [v for v in unread if v not in taken]
        if prefetch_then_read(http, service, spread(unread, PREFETCHED)):
            return 1

        # Stats and error paths.
        stats = http.stats()
        assert stats["ok"] and stats["stats"]["queries"] >= 1, stats
        assert stats["stats"]["admission_races"] == 0, stats["stats"]
        try:
            http.query({"op": "bogus"})
            raise SystemExit("unknown op did not fail")
        except RequestError as exc:
            print(f"unknown op -> REQUEST: {exc}")
        try:
            http.query({"op": "score", "source": prepared.source, "target": 10**9})
            raise SystemExit("unknown target did not fail")
        except VertexError as exc:
            print(f"unknown score target -> VERTEX: {exc}")
        request = urllib.request.Request(
            f"{base}/v1/query", data=b"{not json", method="POST"
        )
        try:
            urllib.request.urlopen(request, timeout=5)
            raise SystemExit("malformed JSON did not fail")
        except urllib.error.HTTPError as exc:
            assert exc.code == 400, exc.code
            print("malformed JSON -> 400")
        try:
            urllib.request.urlopen(f"{base}/v1/nope", timeout=5)
            raise SystemExit("unknown route did not fail")
        except urllib.error.HTTPError as exc:
            assert exc.code == 404, exc.code
            print("unknown route -> 404")
        print("gateway smoke: OK")
        return 0
    finally:
        server.terminate()
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()


if __name__ == "__main__":
    sys.exit(main())
