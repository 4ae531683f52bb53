"""Recovery CI smoke, live leg: kill ``repro serve --store`` inside the
checkpoint writer, then recover the directory it left behind.

The first leg of the recovery smoke (``store-checkpoint`` →
``store-recover --verify``) persists a finished run. This one crashes a
*running* server at the worst instant of the off-path checkpoint: a
:class:`repro.chaos.FaultPlan` ``os._exit``s the process on the writer
thread between the tmp-write and the rename of its second cadence
checkpoint — after the batch that triggered it was acknowledged. It
then asserts, with the real CLI:

- the process died with the fault's exit code and left exactly one
  ``checkpoint-*.npz.tmp`` behind, the previous checkpoint still newest;
- ``store-recover --verify`` rebuilds the store to the last
  acknowledged version (previous checkpoint on its graph base, plus the
  whole WAL tail) with top-k answers **bit-identical** to an embedded
  twin fed the same reads and writes.

Run from the repository root:  PYTHONPATH=src python scripts/recovery_smoke.py
CI runs this in the smoke job (.github/workflows/ci.yml).
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.api.http import HttpClient  # noqa: E402
from repro.chaos import Fault, FaultKind, FaultPlan  # noqa: E402
from repro.cli import TOPK_TRANSCRIPT, _topk_lines  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.serve import workload_service  # noqa: E402

DATASET = "youtube"
K = 5
SOURCES = 6
#: The default ``StoreConfig.checkpoint_interval``: the writer's second
#: ``checkpoint.rename`` visit is the checkpoint batch 20 triggers.
INTERVAL = 10
BATCHES = 2 * INTERVAL


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    tmp = tempfile.TemporaryDirectory(prefix="repro-recovery-smoke-")
    store = Path(tmp.name) / "store"
    plan_path = Path(tmp.name) / "plan.json"
    FaultPlan(
        faults=(Fault("checkpoint.rename", FaultKind.CRASH, at=2),),
        name="smoke-kill-checkpoint-writer",
    ).dump(plan_path)
    server = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro", "serve", DATASET, "--port", "0",
            "--store", str(store), "--chaos", str(plan_path),
        ],
        env=env,
        cwd=REPO,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        base = None
        for line in server.stdout:
            match = re.search(r"listening on (http://[\d.]+:\d+)", line)
            if match:
                base = match.group(1)
                break
        if base is None:
            print("server never listened", file=sys.stderr)
            return 1
        http = HttpClient(base)

        # The embedded twin: same deterministic bootstrap, same history.
        twin, _ = workload_service(DATASET)
        dout = twin.graph.out_degree_array()
        sources = [int(s) for s in (-dout).argsort(kind="stable")[:SOURCES]]
        for source in sources:  # warm residents; no reads after this
            assert http.query({"op": "top_k", "source": source, "k": K})["ok"]
            twin.query(source, K)

        acked = 0
        for index in range(BATCHES):
            batch = [(20_000 + 4 * index + j, sources[j % SOURCES]) for j in range(4)]
            twin.api.ingest(batch)
            try:
                assert http.ingest([list(edge) for edge in batch])["ok"]
                acked += 1
            except (OSError, ReproError):
                # The writer may kill the process before this ack is out;
                # the frame was fsynced before the checkpoint was captured.
                assert index == BATCHES - 1, f"server died at batch {index + 1}"
        code = server.wait(timeout=30)
        if code != 3:
            print(f"serve exited {code}, expected the fault's 3:\n"
                  f"{server.stdout.read()}", file=sys.stderr)
            return 1
        print(f"{acked}/{BATCHES} acks received before the writer was killed")

        left = sorted(p.name for p in (store / "checkpoints").iterdir())
        expected = [
            f"checkpoint-{0:012d}.npz",
            f"checkpoint-{INTERVAL:012d}.npz",
            f"checkpoint-{BATCHES:012d}.npz.tmp",
        ]
        assert left == expected, left
        print(f"crash window on disk: {left[-1]}")

        (store / TOPK_TRANSCRIPT).write_text(
            "\n".join(_topk_lines(twin, sources, K)) + "\n"
        )
        recover = subprocess.run(
            [sys.executable, "-m", "repro", "store-recover",
             "--root", str(store), "--verify"],
            env=env, cwd=REPO, capture_output=True, text=True,
        )
        print(recover.stdout.strip())
        if recover.returncode != 0:
            print(recover.stderr, file=sys.stderr)
            return 1
        want = f"recovered v{INTERVAL} -> v{BATCHES} ({INTERVAL} batches"
        assert want in recover.stdout, recover.stdout
        print("recovery smoke (live leg): OK")
        return 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        tmp.cleanup()


if __name__ == "__main__":
    sys.exit(main())
