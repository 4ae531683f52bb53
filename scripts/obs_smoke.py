"""Observability CI smoke: one trace must cover the whole request path.

Starts ``python -m repro serve --replicas 2 --trace`` (the replicated
cluster tier with 100% trace sampling) as a real subprocess, submits a
coalescible batch of FRESH top-k reads over HTTP, then fetches the
batch's trace from ``GET /v1/trace/<id>`` and asserts:

* the span tree covers every layer — HTTP ingress (``http.request``),
  admission/queue wait (``queue.wait``), the coalescing scheduler
  (``schedule.run``), replica-side execution (``gateway.execute`` /
  ``engine.query`` from a worker process), and the push kernel
  (``push.run``);
* spans arrive from at least two distinct processes (the coordinator
  and a replica) stitched into one trace;
* every non-root ``parent_id`` resolves within the trace — the tree has
  no orphans;
* the spans convert to a loadable Chrome ``trace_event`` document;
* the server's ``--trace-export`` sink, converted by ``repro trace
  export --trace-id``, holds every span of the trace;
* ``GET /v1/slow`` answers.

Run from the repository root:  PYTHONPATH=src python scripts/obs_smoke.py
CI runs this after the test suite (.github/workflows/ci.yml).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.api.http import HttpClient  # noqa: E402
from repro.obs.export import chrome_trace, format_tree  # noqa: E402

DATASET = "youtube"
PORT = 8713
K = 5

#: Span names that must appear for the trace to count as end-to-end.
REQUIRED_SPANS = {
    "http.request",     # ingress root
    "queue.wait",       # admission/queue wait
    "schedule.run",     # read-coalescing scheduler
    "gateway.execute",  # gateway dispatch (coordinator and/or replica)
    "engine.query",     # replica-side engine execution
    "push.run",         # the push kernel itself (cold FRESH sources)
    "http.respond",     # response serialization
}


def wait_healthy(base: str, deadline_s: float = 90.0) -> None:
    start = time.time()
    while time.time() - start < deadline_s:
        try:
            with urllib.request.urlopen(f"{base}/v1/healthz", timeout=2) as response:
                if json.loads(response.read()).get("status") == "ok":
                    return
        except (urllib.error.URLError, ConnectionError):
            time.sleep(0.3)
    raise SystemExit(f"server on {base} never became healthy")


def fetch_finished_trace(http: HttpClient, trace_id: str) -> list[dict]:
    """The trace's spans, once its root has closed (bounded at 2 s).

    The handler thread closes ``http.respond`` and ``http.request`` only
    after the body is on the wire, so the response can reach this client
    before its own trace is complete.
    """
    give_up = time.monotonic() + 2.0
    while True:
        spans = http.trace(trace_id)
        if any(span["name"] == "http.request" for span in spans):
            return spans
        if time.monotonic() > give_up:
            return spans  # the layer assertion below reports what is missing
        time.sleep(0.02)


def main() -> int:
    from repro.kernels import describe

    info = describe()
    print(f"kernel backend: {info['backend']} ({info['reason']})")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    tmp = tempfile.TemporaryDirectory(prefix="repro-obs-smoke-")
    sink, exported = Path(tmp.name) / "spans.jsonl", Path(tmp.name) / "trace.json"
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", DATASET,
            "--port", str(PORT), "--replicas", "2",
            "--trace", "--trace-sample", "1.0", "--trace-export", str(sink),
        ],
        env=env,
        cwd=REPO,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    base = f"http://127.0.0.1:{PORT}"
    try:
        wait_healthy(base)
        http = HttpClient(base)

        # A coalescible FRESH batch on cold sources: the scheduler plans
        # one read run, the cluster splits it across replicas, and the
        # replicas run cold admission pushes — every layer lights up.
        body = http._request(
            "POST",
            "/v1/query",
            {
                "requests": [
                    {"op": "top_k", "source": 0, "k": K,
                     "consistency": "fresh"},
                    {"op": "top_k", "source": 1, "k": K,
                     "consistency": "fresh"},
                    {"op": "top_k", "source": 0, "k": K,
                     "consistency": "fresh"},
                ]
            },
        )
        for response in body["responses"]:
            assert response.get("ok"), response
        trace_id = body.get("trace_id")
        assert trace_id, f"batch response carried no trace_id: {body.keys()}"

        spans = fetch_finished_trace(http, trace_id)
        names = {span["name"] for span in spans}
        missing = REQUIRED_SPANS - names
        assert not missing, (
            f"trace {trace_id} is missing layers {sorted(missing)};"
            f" got {sorted(names)}\n{format_tree(spans)}"
        )

        pids = {span["pid"] for span in spans}
        assert len(pids) >= 2, (
            f"expected spans from >= 2 processes, got pids {sorted(pids)}"
        )

        ids = {span["span_id"] for span in spans}
        orphans = [
            span["name"]
            for span in spans
            if span["parent_id"] is not None and span["parent_id"] not in ids
        ]
        assert not orphans, f"unresolved parent ids on spans: {orphans}"

        document = chrome_trace(spans)
        assert document["traceEvents"], "chrome export produced no events"
        assert json.loads(json.dumps(document)) == document

        # The JSONL sink, converted by the CLI, holds the same spans.
        subprocess.run(
            [
                sys.executable, "-m", "repro", "trace", "export",
                "--input", str(sink), "--out", str(exported),
                "--trace-id", trace_id,
            ],
            env=env, cwd=REPO, check=True,
        )
        events = json.loads(exported.read_text())["traceEvents"]
        assert {e["args"]["span_id"] for e in events} == ids, (
            f"sink export of {trace_id}: {sorted(e['name'] for e in events)}"
        )

        slow = http.slow(threshold_ms=0.0)
        assert isinstance(slow, list)

        print(format_tree(spans))
        print(
            f"obs smoke: OK — trace {trace_id} has {len(spans)} spans"
            f" across {len(pids)} processes,"
            f" {len(document['traceEvents'])} chrome events,"
            f" {len(slow)} slow-log entries"
        )
        return 0
    finally:
        server.terminate()
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
        tmp.cleanup()


if __name__ == "__main__":
    sys.exit(main())
