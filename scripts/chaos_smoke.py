"""Chaos CI smoke: failover under a scripted fault plan, over real HTTP.

Starts ``python -m repro serve --replicas 2 --store --chaos PLAN.json``
as a real subprocess with a :class:`repro.chaos.FaultPlan` that crashes
the primary on the third write, then drives writes and ANY reads over
the socket with a retrying :class:`repro.api.HttpClient` and asserts
the failover subsystem's acceptance bar end to end:

- every write is acked, including the one that kills the primary
  (zero acked-write loss — the killing write forwards to the promoted
  replica);
- ANY reads answer throughout; ``/v1/healthz`` stays 200 (liveness)
  while ``/v1/readyz`` reports the promoted primary and bumped epoch;
- post-heal, a FRESH top-k for a source untouched during the run is
  **bit-identical** to an embedded twin fed the same writes at the
  same version;
- SIGTERM drains gracefully: in-flight work finishes, the store
  checkpoints, replicas join, and the process exits 0.

Run from the repository root:  PYTHONPATH=src python scripts/chaos_smoke.py
CI runs this after the test suite (.github/workflows/ci.yml).
"""

from __future__ import annotations

import json
import os
import signal
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
from repro.api.resilience import RetryPolicy  # noqa: E402
from repro.serve import workload_service  # noqa: E402
from repro.chaos import Fault, FaultKind, FaultPlan  # noqa: E402

DATASET = "youtube"
PORT = 8714
K = 5
KILL_AT_WRITE = 3
WRITES = [(10_000 + i, i) for i in range(6)]


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


def main() -> int:
    from repro.kernels import describe

    info = describe()
    print(f"kernel backend: {info['backend']} ({info['reason']})")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-smoke-")
    plan_path = Path(tmp.name) / "plan.json"
    FaultPlan(
        faults=(Fault("primary.apply", FaultKind.CRASH, at=KILL_AT_WRITE),),
        name="smoke-kill-primary",
    ).dump(plan_path)
    store_dir = Path(tmp.name) / "store"

    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", DATASET,
            "--port", str(PORT), "--replicas", "2",
            "--store", str(store_dir), "--chaos", str(plan_path),
        ],
        env=env,
        cwd=REPO,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    base = f"http://127.0.0.1:{PORT}"
    try:
        wait_healthy(base)
        http = HttpClient(
            base, retry=RetryPolicy(attempts=3, base_backoff_s=0.1)
        )
        ready = http.readyz()
        assert ready["ready"] and ready["epoch"] == 0, ready

        # The embedded twin: same deterministic bootstrap, same writes.
        service, prepared = workload_service(DATASET)
        probe = prepared.source  # untouched until the post-heal check

        # Writes around the scripted primary crash; ANY reads between.
        deadline = 10.0
        for index, edge in enumerate(WRITES, start=1):
            start = time.time()
            ack = http.ingest([list(edge)])
            elapsed = time.time() - start
            assert ack["ok"], f"write {index} lost: {ack}"
            assert elapsed < deadline, f"write {index} took {elapsed:.1f}s"
            service.api.ingest([edge])

            answer = http.query(
                {"op": "top_k", "source": index % 5, "k": K,
                 "consistency": "any"}
            )
            assert answer["ok"], f"ANY read {index} failed: {answer}"
        print(f"all {len(WRITES)} writes acked across the primary crash")

        # Liveness stayed up; readiness now names the promoted replica.
        assert http.healthz()["status"] == "ok"
        ready = http.readyz()
        assert ready["ready"], f"cluster did not heal: {ready}"
        assert ready["epoch"] >= 1, f"no epoch bump: {ready}"
        assert str(ready["primary"]).startswith("replica-"), ready
        print(f"failover: epoch {ready['epoch']}, primary {ready['primary']}")

        stats = http.stats()["stats"]["cluster"]
        assert stats["failovers"] >= 1, stats
        assert any(e["site"] == "primary.apply" for e in stats["chaos"]), stats

        # Post-heal bit-identity at matched versions on an untouched
        # source: both arms compute it from scratch at head.
        embedded = service.api.top_k(probe, k=K)
        answer = http.query({"source": probe, "k": K})
        assert answer["snapshot_version"] == embedded.snapshot_version, (
            answer["snapshot_version"], embedded.snapshot_version,
        )
        got = [(e["vertex"], e["estimate"]) for e in answer["entries"]]
        want = [(e.vertex, e.estimate) for e in embedded.entries]
        if got != want:
            print(f"post-heal mismatch:\n  http     {got}\n  embedded {want}",
                  file=sys.stderr)
            return 1
        print(f"post-heal top-{K} bit-identical to the embedded twin: {got}")

        # Graceful shutdown: SIGTERM must drain, checkpoint, and exit 0.
        server.send_signal(signal.SIGTERM)
        output, _ = server.communicate(timeout=30)
        if server.returncode != 0:
            print(f"serve exited {server.returncode}:\n{output}", file=sys.stderr)
            return 1
        assert "checkpoint" in output, f"no drain checkpoint in:\n{output}"
        print("SIGTERM drained gracefully: checkpointed, replicas joined, exit 0")
        print("chaos smoke: OK")
        return 0
    finally:
        if server.poll() is None:
            server.terminate()
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()
        tmp.cleanup()


if __name__ == "__main__":
    sys.exit(main())
