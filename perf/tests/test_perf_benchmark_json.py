"""BENCHMARK.json: within the driver's limits and naming every metric."""

import json
import re
from pathlib import Path

from perf import run

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: The 39 per-layer metrics of the issue that defined this benchmark.
ISSUE_PER_LAYER = """
api.http.overhead_p50_ms api.http.wire_p50_ms api.http.self_ms
api.gateway.lock_wait_ms api.gateway.self_ms
serve.engine_read_p50_ms serve.engine_write_p50_ms
serve.self_ms_per_read serve.self_ms_per_write
serve.cache.hit_rate serve.cache.evictions core.certify.ms_per_read
core.push.cold_ms core.push.edges_per_cold_push core.push.refresh_ms
core.push.edges_per_refresh_push core.push.iterations_per_push
kernels.phase_ms kernels.compiled_share
core.invariant.us_per_call core.invariant.calls_per_write
graph.apply_us_per_update graph.delta.apply_ms_per_write
graph.delta.applies graph.delta.consolidations graph.csr.rebuilds
store.wal.append_ms_per_write store.checkpoint.ms store.checkpoint.stall_share
store.checkpoint.count store.checkpoint.mb store.disk_mb
store.recover.replayed_batches
shard.exchange_rounds_per_read shard.frontier_kb_per_read
shard.dispatch_skew shard.respawns
trace.overhead_pct trace.missing_targets
""".split()
#: Its per-op-type client metrics, which the driver's contract (every
#: end-to-end metric measured and non-zero on every workload) moves here,
#: and the server's CPU cost per op, too noisy on this box to carry a bound.
ISSUE_CLIENT = """
read_p50_ms read_p95_ms reads_per_s write_p50_ms write_p95_ms
updates_per_s recover_s failed_share server.cpu_ms_per_op
""".split()


def test_exact_keys_and_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["perf"]
    assert SPEC["command"] == ["python3", "perf/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert len(SPEC["workloads"]) == 4
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_metrics_are_named_once_with_units_directions_and_bounds():
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_metric_of_the_issue_is_present():
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert len(ISSUE_PER_LAYER) == 39
    assert set(ISSUE_PER_LAYER) | set(ISSUE_CLIENT) == per_layer
    assert {"setup_s", "peak_rss_mb"} <= {m["name"] for m in SPEC["end_to_end"]}


def test_result_line_has_the_contract_shape():
    outcome = run.Outcome("hot_reads", 0, 1, 12, attempted=5)
    outcome.metrics = {"setup_s": (2.5, 3), "op_p50_ms": (None, 0)}
    line = json.loads(run.result_line(outcome, SPEC))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] == 5 and line["failed"] == 0
    assert line["metrics"]["setup_s"] == {"value": 2.5, "unit": "s"}
    assert line["metrics"]["op_p50_ms"] == {"value": 0.0, "unit": "ms"}
    outcome.check("a check", False, "why")
    assert json.loads(run.result_line(outcome, SPEC))["correct"] is False


def test_sets_are_compared_against_the_bounds(capsys):
    def outcome(p50):
        o = run.Outcome("hot_reads", 0, 1, 12, attempted=1)
        o.metrics = {m["name"]: (100.0, 1) for m in SPEC["end_to_end"]}
        o.metrics["op_p50_ms"] = (p50, 1)
        return o

    assert run.compare_sets([[outcome(100.0)], [outcome(105.0)]], SPEC)
    assert not run.compare_sets([[outcome(100.0)], [outcome(140.0)]], SPEC)
    assert "FAIL" in capsys.readouterr().out
