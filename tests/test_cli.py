"""Tests for the command-line interface."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import HttpClient
from repro.cli import build_parser, main
from repro.core.invariant import check_invariant
from repro.errors import ReproError
from repro.store.checkpoint import CHECKPOINT_FORMAT
from repro.store.recovery import recover

SRC = Path(__file__).resolve().parent.parent / "src"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["track", "facebook"])

    @staticmethod
    def _subparsers(parser):
        (action,) = parser._subparsers._group_actions
        return action.choices

    def test_subcommand_set_is_exactly_the_ten(self):
        assert set(self._subparsers(build_parser())) == {
            "datasets", "figure", "ablation", "track", "serve",
            "store-checkpoint", "store-inspect", "store-recover", "trace",
            "load-bench",
        }

    def test_figure_and_ablation_choices_are_the_registries(self):
        from repro.bench.ablations import ABLATIONS
        from repro.bench.figures import FIGURES

        commands = self._subparsers(build_parser())
        choices = {
            name: next(
                a.choices for a in commands[name]._actions if a.dest == "name"
            )
            for name in ("figure", "ablation")
        }
        assert list(choices["figure"]) == list(FIGURES)
        assert list(choices["ablation"]) == list(ABLATIONS)


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("pokec", "livejournal", "youtube", "orkut", "twitter"):
            assert name in out

    def test_figure_fig9(self, capsys):
        assert main(["figure", "fig9", "--dataset", "youtube", "--slides", "1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out
        assert "WO" in out

    def test_ablation_frontier(self, capsys):
        assert main(["ablation", "frontier", "--dataset", "youtube"]) == 0
        out = capsys.readouterr().out
        assert "sync_dedup_checks" in out
        assert "vanilla" in out and "opt" in out

    def test_track(self, capsys):
        assert main(["track", "youtube", "--slides", "1", "--epsilon", "1e-4"]) == 0
        out = capsys.readouterr().out
        assert "slide 1" in out
        assert "certified top-5" in out

    @pytest.mark.parametrize(
        "flag",
        [
            ["--cache", "0"],
            ["--trace-sample", "2"],
            ["--port", "70000"],
            ["--replicas", "99"],
        ],
        ids=["cache", "trace-sample", "port", "replicas"],
    )
    def test_bad_flag_value_is_one_line_and_exit_2(self, capsys, flag):
        assert main(["serve", "youtube", *flag]) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("repro: error: ")
        assert "Traceback" not in captured.out + captured.err


class TestStoreCommands:
    """The durable-store trio: checkpoint a workload, inspect, recover."""

    def _checkpoint(self, root, slides: int = 4) -> list[str]:
        return [
            "store-checkpoint",
            "youtube",
            "--root",
            str(root),
            "--slides",
            str(slides),
            "--sources",
            "6",
            "--interval",
            "3",
        ]

    def test_checkpoint_then_inspect_then_recover_verifies(self, capsys, tmp_path):
        root = tmp_path / "store"
        assert main(self._checkpoint(root)) == 0
        out = capsys.readouterr().out
        assert "persisted youtube" in out
        assert "served top-5 transcript" in out
        assert (root / "served_topk.txt").exists()
        assert (root / "checkpoints").is_dir()
        assert (root / "wal").is_dir()

        assert main(["store-inspect", "--root", str(root)]) == 0
        out = capsys.readouterr().out
        assert "Checkpoints" in out and "WAL segments" in out
        assert "checkpoint-" in out
        # Per checkpoint: the layout version, the graph base it names, and
        # how sparse the vectors are.
        assert {"format", "base", "nnz", "density"} <= set(out.split())
        rows = [line.split() for line in out.splitlines() if "checkpoint-0" in line]
        assert rows and all(
            row[3:5] == [str(CHECKPOINT_FORMAT), "v0"] and row[6].endswith("%")
            for row in rows
        )
        assert "graph-000000000000.npz" in out and "MISSING" not in out
        # slides=4, interval=3: one batch lives in the WAL tail, clean.
        assert "wal-" in out and "clean" in out

        assert main(["store-recover", "--root", str(root), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "recovered v3 -> v4 (1 batches" in out
        assert "graph base v0 + 3 batches" in out
        assert "verify: OK" in out

        # A checkpoint whose base is gone is flagged, not silently listed.
        (root / "graph" / "graph-000000000000.npz").unlink()
        assert main(["store-inspect", "--root", str(root)]) == 0
        assert capsys.readouterr().out.count("v0 MISSING") == len(rows)

    def test_recover_without_transcript_still_serves(self, capsys, tmp_path):
        root = tmp_path / "store"
        assert main(self._checkpoint(root)) == 0
        capsys.readouterr()
        (root / "served_topk.txt").unlink()
        assert main(["store-recover", "--root", str(root)]) == 0
        out = capsys.readouterr().out
        assert "resident sources:" in out

    def test_verify_honors_transcript_depth_not_default_k(self, capsys, tmp_path):
        """A store checkpointed at --k 7 must verify with default flags."""
        root = tmp_path / "store"
        assert main(self._checkpoint(root) + ["--k", "7"]) == 0
        capsys.readouterr()
        assert main(["store-recover", "--root", str(root), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "verify: OK" in out
        assert " 6 " in out  # rank 6 rows served, matching the transcript

    def test_recover_verify_fails_on_tampered_transcript(self, capsys, tmp_path):
        root = tmp_path / "store"
        assert main(self._checkpoint(root)) == 0
        transcript = root / "served_topk.txt"
        lines = transcript.read_text().splitlines()
        lines[0] = lines[0].rsplit(" ", 1)[0] + " 0.123456"
        transcript.write_text("\n".join(lines) + "\n")
        assert main(["store-recover", "--root", str(root), "--verify"]) == 1
        assert "MISMATCH" in capsys.readouterr().err

    def test_inspect_missing_root_fails(self, capsys, tmp_path):
        assert main(["store-inspect", "--root", str(tmp_path / "nope")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_recover_empty_store_fails(self, capsys, tmp_path):
        assert main(["store-recover", "--root", str(tmp_path)]) == 1
        assert "recovery failed" in capsys.readouterr().err

    @staticmethod
    def _sharded_store(root: Path) -> None:
        """A 2-shard store: three acked ingests, then a checkpoint round."""
        from repro import DynamicDiGraph
        from repro.api.requests import CheckpointNow
        from repro.config import ShardConfig, StoreConfig
        from repro.shard import PPRShards

        edges = [(1, 0), (2, 0), (2, 1), (0, 2), (3, 1), (4, 3), (1, 4), (3, 0)]
        with PPRShards(
            DynamicDiGraph(edges),
            ShardConfig(shards=2),
            store_root=str(root),
            store_config=StoreConfig(root=str(root), checkpoint_interval=2),
        ) as fleet:
            for edge in [(5, 0), (6, 1), (0, 3)]:
                assert fleet.api.ingest([edge]).ok
            assert fleet.gateway.submit(CheckpointNow()).ok
        assert sorted(p.name for p in root.iterdir()) == [
            "manifest.json", "shard-00", "shard-01",
        ]

    def test_inspect_reads_a_sharded_root_shard_by_shard(self, capsys, tmp_path):
        self._sharded_store(tmp_path)
        assert main(["store-inspect", "--root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"sharded store {tmp_path}: 2 shards, manifest v3" in out
        for shard in ("shard-00", "shard-01"):
            assert f"Checkpoints — {tmp_path / shard}" in out
        assert out.count("checkpoint-000000000003") == 2
        assert out.count("graph-000000000000.npz") == 2
        assert "(none)" not in out

    def test_recover_refuses_a_sharded_root_by_name(self, capsys, tmp_path):
        self._sharded_store(tmp_path)
        assert main(["store-recover", "--root", str(tmp_path), "--verify"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [
            f"repro: error: {tmp_path} is a sharded store root (2 shards,"
            " manifest v3); store-recover recovers a single-process store only"
        ]

    def test_store_checkpoint_requires_root(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store-checkpoint", "youtube"])


class TestServeShutdown:
    """``repro serve``'s drain must not race the requests it is draining."""

    RESIDENTS = 48
    SLOW_BATCH = 24000

    def _spawn(self, store: Path, log: Path) -> subprocess.Popen:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        # The Python oracle repairs 24000 updates x 48 residents in well
        # over a second; serve_forever notices a shutdown request within
        # its 0.5 s poll, so the drain starts while the batch is applying.
        env["REPRO_KERNEL"] = "numpy"
        return subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "youtube",
             "--port", "0", "--store", str(store)],
            env=env,
            stdout=open(log, "wb"),
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
        )

    def _wait_listening(self, proc: subprocess.Popen, log: Path) -> str:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            match = re.search(r"listening on (http://[\d.]+:\d+)", log.read_text())
            if match:
                return match.group(1)
            assert proc.poll() is None, log.read_text()
            time.sleep(0.02)
        raise AssertionError(f"server never listened:\n{log.read_text()}")

    def _sigterm_mid_ingest(self, tmp_path, quick_batches: int):
        """Ack ``quick_batches`` small batches, SIGTERM during a slow one;
        returns the recovery of the store the drained process left."""
        store, log = tmp_path / "store", tmp_path / "server.log"
        proc = self._spawn(store, log)
        try:
            client = HttpClient(self._wait_listening(proc, log))
            health = client.healthz()
            n, edges_before = health["num_vertices"], health["num_edges"]
            client.query_many(
                [{"op": "top_k", "source": s, "k": 5} for s in range(self.RESIDENTS)]
            )
            rng = np.random.default_rng(5)
            pairs = [
                [int(u), int(v)]
                for u, v in rng.integers(0, n, size=(self.SLOW_BATCH + 8, 2))
                if u != v
            ]
            first, slow = pairs[:8], pairs[8:]
            for version in range(1, quick_batches + 1):
                assert client.ingest(first)["snapshot_version"] == version

            acked: list[int] = []

            def slow_ingest() -> None:
                try:
                    acked.append(client.ingest(slow)["snapshot_version"])
                except (OSError, ReproError):
                    pass  # the socket may die with the process; then no ack

            writer = threading.Thread(target=slow_ingest)
            writer.start()
            time.sleep(0.15)  # the batch is now being applied
            proc.send_signal(signal.SIGTERM)
            writer.join(timeout=60)
            assert proc.wait(timeout=60) == 0, log.read_text()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        output = log.read_text()
        assert "Traceback" not in output, output
        assert "shutting down (SIGTERM)" in output

        result = recover(store, attach=False)
        service = result.service
        # The drain waited for the batch, so it is durable whether or not
        # its handler (a daemon thread) got the ack out before exit.
        assert service.graph_version == quick_batches + 1
        assert acked in ([quick_batches + 1], []), output
        # Whole batches only: a checkpoint cut mid-batch would hold a
        # prefix of the slow one (and vectors repaired for that prefix).
        assert service.graph.num_edges == (
            edges_before + quick_batches * len(first) + len(slow)
        )
        assert not list(store.rglob("*.tmp"))
        entry = service.cache.entries()[-1]
        assert check_invariant(entry.state, service.graph, service.config.alpha)
        return result, output

    def test_sigterm_during_a_slow_ingest_checkpoints_the_acked_version(
        self, tmp_path
    ):
        """SIGTERM lands while an ingest is mid-batch on a handler thread.
        The shutdown checkpoint must queue behind it on the gateway lock —
        not snapshot half a batch, and not race the ingest's own
        checkpoint for the one tmp name — so the process exits 0 and the
        store recovers to exactly the acknowledged version. (One
        acknowledged batch first: the drain only checkpoints a store that
        has something new to checkpoint.)"""
        result, output = self._sigterm_mid_ingest(tmp_path, quick_batches=1)
        assert "store:    checkpointed at v2" in output
        assert (result.checkpoint_version, result.replayed_batches) == (2, 0)

    def test_sigterm_while_the_checkpoint_writer_is_mid_file(self, tmp_path):
        """The slow batch is the interval's tenth, so finishing it hands a
        checkpoint to the writer thread just as the drain runs. Whether
        the drain saw nine dirty batches and queued its own checkpoint
        behind the ingest (it then joins the writer and re-captures v10
        under the same name) or found nothing left to do, it must join
        that writer, never race it: the file is whole at exit."""
        result, _ = self._sigterm_mid_ingest(tmp_path, quick_batches=9)
        assert (result.checkpoint_version, result.replayed_batches) == (10, 0)
