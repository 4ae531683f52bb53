#!/usr/bin/env python3
"""The benchmark's one command (see perf/README.md).

``python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload once and prints, as the last line of its standard
output, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``. Without ``--workload`` /
``--trace`` every workload runs in both modes; ``--repeat K`` runs K
such sets and compares them against the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perf import metrics as mx  # noqa: E402
from perf.loadgen import Client, run_sequence, run_timed  # noqa: E402
from perf.server import SCRATCH, SRC, Server, ServerError, parse_kernel  # noqa: E402
from perf.stats import relative_spread, worsening  # noqa: E402
from perf.workloads import WAL_TAIL, WORKLOADS, Op, Plan  # noqa: E402

RESULTS = ROOT / "perf" / "results"
SETUP_REPEATS = 3
RECOVER_REPEATS = 3
#: The driver allows a run 180 s; stop sending well before that.
HARD_LIMIT_S = 140.0
#: Metrics that must repeat exactly between two sets of runs. Counts that
#: grow with the number of ops a run fits into ``--seconds`` are not here.
EXACT = (
    ("hot_reads", "serve.cache.hit_rate"),
    ("cold_reads", "serve.cache.hit_rate"),
    ("write_stream", "serve.cache.hit_rate"),
    ("write_stream", "store.recover.replayed_batches"),
    ("write_stream", "core.invariant.calls_per_write"),
    ("mixed_shards2", "shard.respawns"),
)


@dataclass
class Outcome:
    workload: str
    trace: int
    seed: int
    seconds: int
    metrics: mx.Metrics = field(default_factory=dict)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    info: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for _, ok, _ in self.checks)


# ------------------------------------------------------------------ #
# driving one server
# ------------------------------------------------------------------ #


def fetch_stats(server: Server) -> dict:
    conn = server.connect(timeout=30.0)
    try:
        conn.request("GET", "/v1/stats")
        response = conn.getresponse()
        payload = json.loads(response.read())
    finally:
        conn.close()
    if response.status != 200 or not payload.get("ok"):
        raise ServerError(f"/v1/stats failed: {payload}")
    return payload["stats"]


@dataclass
class Drive:
    phase: mx.Phase
    clients: list[Client]
    checkpoints_seen: set[str]
    peak_rss_mb: float
    #: Single-client samples on the same server, for trace.overhead_pct.
    reference: list

    @property
    def samples(self) -> list:
        return [s for c in self.clients for s in c.log.samples]

    @property
    def probe_answers(self) -> list[dict]:
        return self.clients[0].log.answers


def drive(
    server: Server,
    plan: Plan,
    seconds: float,
    hard_deadline: float,
    *,
    reference: Iterator[Op] | None = None,
    reference_s: float = 0.0,
) -> Drive:
    """Warm up, run the timed phase, send the probes — then quiesce.

    Every client connection is closed before this returns, so the caller
    may signal the server without racing an in-flight request.

    The traced run has one client; a two-client phase inflates the
    engine's wall time (the other thread takes the GIL inside it). So
    ``reference`` replays the head of client 0's stream alone for
    ``reference_s``, giving the traced run the same requests, untraced
    and uncontended, to be compared with.
    """
    clients = [Client(server.connect) for _ in range(plan.clients)]
    seen: set[str] = set()

    def watch_checkpoints(op: object) -> None:
        # Between requests, outside every timed span.
        if getattr(op, "kind", "") == "write" and server.store_dir is not None:
            seen.update(p.name for p in (server.store_dir / "checkpoints").glob("*.npz"))

    try:
        run_sequence(clients[0], plan.warmup)
        marks = [len(c.log.samples) for c in clients]
        before = fetch_stats(server)
        cpu_before = server.cpu_seconds()
        start, end = run_timed(
            clients,
            plan.streams,
            seconds,
            may_stop=plan.may_stop,
            hard_deadline=hard_deadline,
            after_op=watch_checkpoints if plan.store else None,
        )
        cpu_s = server.cpu_seconds() - cpu_before
        after = fetch_stats(server)
        timed = [s for c, m in zip(clients, marks) for s in c.log.samples[m:]]
        replayed = timed
        if reference is not None:
            mark = len(clients[0].log.samples)
            run_timed(
                clients[:1],
                [reference],
                reference_s,
                may_stop=plan.may_stop,
                hard_deadline=hard_deadline,
            )
            replayed = clients[0].log.samples[mark:]
        run_sequence(clients[0], plan.probes, keep_answers=True)
        rss = server.peak_rss_mb()
    finally:
        for client in clients:
            client.close()
    phase = mx.Phase(
        clients=plan.clients,
        start=start,
        end=end,
        samples=timed,
        has_writes=plan.has_writes,
        stats_before=before,
        stats_after=after,
        cpu_s=cpu_s,
    )
    return Drive(phase, clients, seen, rss, replayed)


def account(outcome: Outcome, plan: Plan, run: Drive, label: str = "") -> None:
    """Failures and the checks every workload shares."""
    samples = run.samples
    outcome.attempted += len(samples)
    errors = [s.error for s in samples if s.error is not None]
    outcome.failed += len(errors)
    if any(c.log.timed_out for c in run.clients):
        outcome.failed += 1
        outcome.check(f"{label}finished inside the hard limit", False, "timed out")
    if errors:
        outcome.check(f"{label}every request succeeded", False, errors[0])
    violations = [v for c in run.clients for v in c.log.violations]
    outcome.check(
        f"{label}answers well-formed and fresh enough",
        not violations,
        violations[0] if violations else f"{len(samples)} answers",
    )
    if not run.phase.ok:
        raise ServerError("no timed request succeeded")
    hit_rate, evictions, lookups = mx.cache_counts(run.phase)
    reads = len(run.phase.of("read"))
    if plan.all_hits:
        outcome.check(
            f"{label}every read a cache hit, no eviction",
            hit_rate == 1.0 and evictions == 0,
            f"hit_rate {hit_rate}, evictions {evictions}",
        )
    else:
        outcome.check(
            f"{label}every read a miss and an eviction",
            hit_rate == 0.0 and evictions == reads,
            f"hit_rate {hit_rate}, evictions {evictions} of {lookups} reads",
        )


# ------------------------------------------------------------------ #
# kill -9 and recover (write_stream)
# ------------------------------------------------------------------ #


def recover_and_check(outcome: Outcome, server: Server, run: Drive) -> mx.Metrics:
    """Recover copies of the killed server's store and compare answers.

    ``kill -9`` keeps the OS page cache, so this checks the recovery
    *path* (checkpoint + WAL replay), not fsync loss — see the README.
    """
    from repro.store import recover

    assert server.store_dir is not None
    last_acked = max(c.log.last_acked for c in run.clients)
    files = [p for p in server.store_dir.rglob("*") if p.is_file()]
    checkpoints = sorted((server.store_dir / "checkpoints").glob("*.npz"))
    out: mx.Metrics = {
        "store.checkpoint.count": (float(len(run.checkpoints_seen)), 1),
        "store.checkpoint.mb": (
            checkpoints[-1].stat().st_size / 2**20 if checkpoints else None,
            1,
        ),
        "store.disk_mb": (sum(p.stat().st_size for p in files) / 2**20, len(files)),
    }
    times = []
    result = None
    for attempt in range(RECOVER_REPEATS):
        copy = server.workdir / f"recover-{attempt}"
        shutil.copytree(server.store_dir, copy)
        started = time.perf_counter()
        result = recover(copy, attach=False)
        times.append(time.perf_counter() - started)
    assert result is not None
    out["recover_s"] = (statistics.median(times), len(times))
    out["store.recover.replayed_batches"] = (float(result.replayed_batches), 1)
    service = result.service
    outcome.check(
        "recovered graph_version equals the last acknowledged write",
        service.graph_version == last_acked,
        f"recovered v{service.graph_version}, acknowledged v{last_acked}",
    )
    outcome.check(
        f"recovery replayed the {WAL_TAIL}-batch WAL tail",
        result.replayed_batches == WAL_TAIL,
        f"replayed {result.replayed_batches}",
    )
    worst = ""
    for answer in run.probe_answers:
        served = {e["vertex"]: e for e in answer["entries"]}
        for entry in service.query(answer["source"], len(served)).entries:
            before = served.get(entry.vertex)
            if before is None:
                continue
            slack = (before["upper"] - before["estimate"]) + (entry.upper - entry.estimate)
            if abs(before["estimate"] - entry.estimate) > slack:
                worst = (
                    f"source {answer['source']} vertex {entry.vertex}:"
                    f" served {before['estimate']}, recovered {entry.estimate}"
                )
    outcome.check(
        "recovered top-k within the certified bounds of the served answers",
        not worst and len(run.probe_answers) > 0,
        worst or f"{len(run.probe_answers)} probe sources",
    )
    return out


# ------------------------------------------------------------------ #
# one run = one workload in one trace mode
# ------------------------------------------------------------------ #


def stop_server(outcome: Outcome, plan: Plan, server: Server, run: Drive) -> mx.Metrics:
    """End the server the way the workload says; returns store metrics."""
    if plan.store:
        server.kill()
        return recover_and_check(outcome, server, run)
    code = server.terminate()
    outcome.check("server shut down cleanly on SIGTERM", code == 0, f"exit {code}")
    return {}


def run_end_to_end(plan: Plan, outcome: Outcome, hard_deadline: float) -> None:
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        with Server(plan.server_args, store=plan.store, tag="setup") as spare:
            setups.append(spare.wait_ready())
            spare.terminate()
    with Server(plan.server_args, store=plan.store) as server:
        setups.append(server.wait_ready())
        outcome.info["kernel"] = parse_kernel(server.banner())
        run = drive(server, plan, outcome.seconds, hard_deadline)
        account(outcome, plan, run)
        stop_server(outcome, plan, server, run)
    outcome.info["setups_s"] = setups
    outcome.info["timed_ops"] = len(run.phase.samples)
    outcome.metrics = mx.end_to_end(run.phase, statistics.median(setups), run.peak_rss_mb)


#: Share of ``--seconds`` each part of a per-layer run gets: the untraced
#: phase, its single-client reference (two-client plans only), the traced run.
UNTRACED_SHARE, REFERENCE_SHARE, TRACED_SHARE = 0.35, 0.15, 0.5


def run_per_layer(plan: Plan, outcome: Outcome, hard_deadline: float, spec: dict) -> None:
    """An untraced part (stats deltas, store) and, where the workload runs
    in one process, a traced part through the benchmark's launcher."""
    seconds = outcome.seconds
    again = WORKLOADS[plan.name]  # fresh streams, same requests
    reference_s = REFERENCE_SHARE * seconds if plan.clients > 1 else 0.0
    untraced_s = (UNTRACED_SHARE + REFERENCE_SHARE) * seconds - reference_s
    with Server(plan.server_args, store=plan.store) as server:
        server.wait_ready()
        outcome.info["kernel"] = parse_kernel(server.banner())
        run = drive(
            server,
            plan,
            untraced_s,
            hard_deadline,
            reference=again(outcome.seed).streams[0] if reference_s else None,
            reference_s=reference_s,
        )
        account(outcome, plan, run)
        measured = mx.untraced(run.phase)
        measured.update(stop_server(outcome, plan, server, run))
    if plan.sharded:
        measured.update(mx.shard_metrics(run.phase))
        respawns = measured["shard.respawns"][0]
        outcome.check("no shard respawned", respawns == 0, f"respawns {respawns}")
    else:
        kind = "write" if plan.has_writes else "read"
        engine_ms = [s.engine_s * 1e3 for s in run.reference if s.kind == kind and not s.error]
        measured.update(
            traced_part(
                again(outcome.seed), outcome, TRACED_SHARE * seconds, hard_deadline, kind, engine_ms
            )
        )
    outcome.metrics = {
        m["name"]: measured.get(m["name"], (None, 0)) for m in spec["per_layer"]
    }


def traced_part(
    plan: Plan,
    outcome: Outcome,
    seconds: float,
    hard_deadline: float,
    kind: str,
    untraced_engine_ms: list[float],
) -> mx.Metrics:
    RESULTS.mkdir(exist_ok=True)
    trace_path = RESULTS / f"trace-{plan.name}.json"
    trace_path.unlink(missing_ok=True)
    plan = replace(plan, clients=1, streams=plan.streams[:1])
    launcher = ("perf/traced_serve.py", str(trace_path))
    with Server(plan.server_args, store=plan.store, launcher=launcher, tag="traced") as server:
        server.wait_ready()
        run = drive(server, plan, seconds, hard_deadline)
        account(outcome, plan, run, "traced: ")
        # The launcher writes the span file after a graceful shutdown.
        code = server.terminate()
        outcome.check("traced: server shut down cleanly", code == 0, f"exit {code}")
    if not trace_path.is_file():
        outcome.check("traced: span file written", False, str(trace_path))
        return {}
    trace = json.loads(trace_path.read_text())
    measured, report = mx.traced(trace["spans"], run.phase, untraced_engine_ms, kind)
    measured["trace.missing_targets"] = (float(len(trace["missing"])), 1)
    outcome.info["trace"] = {**report, "missing": trace["missing"]}
    outcome.check(
        "traced: self times sum to the handler span within 1 %",
        report["reconcile_worst"] <= 0.01 and report["unmatched"] == 0,
        f"worst {report['reconcile_worst']:.2e}, unmatched {report['unmatched']}",
    )
    checks = trace.get("checks")
    outcome.check(
        "traced: Eq. 2 invariant and max|R| <= eps on fresh residents at shutdown",
        bool(checks) and checks["invariant_ok"] and checks["residual_ok"],
        json.dumps(checks),
    )
    return measured


def run_one(name: str, seed: int, seconds: int, trace: int, spec: dict) -> Outcome:
    outcome = Outcome(name, trace, seed, seconds)
    plan = WORKLOADS[name](seed)
    hard_deadline = time.monotonic() + HARD_LIMIT_S
    try:
        if trace:
            run_per_layer(plan, outcome, hard_deadline, spec)
        else:
            run_end_to_end(plan, outcome, hard_deadline)
    except ServerError as exc:
        outcome.failed += 1
        outcome.attempted = max(outcome.attempted, 1)
        outcome.check("server stayed up", False, str(exc)[-400:])
    return outcome


# ------------------------------------------------------------------ #
# output
# ------------------------------------------------------------------ #


def units(spec: dict) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def print_outcome(outcome: Outcome, spec: dict) -> None:
    unit = units(spec)
    mode = "per-layer" if outcome.trace else "end-to-end"
    print(
        f"\n== {outcome.workload} · {mode} · seed {outcome.seed}"
        f" · {outcome.seconds} s · kernel {outcome.info.get('kernel', '?')}"
    )
    for name, (value, n) in outcome.metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<38} {shown:>12} {unit.get(name, ''):<6} n={n}")
    trace = outcome.info.get("trace")
    if trace:
        for kind, shares in trace["shares"].items():
            parts = ", ".join(f"{layer} {share:.1%}" for layer, share in shares.items())
            print(f"  handler-span shares ({kind}): {parts}")
        if trace["missing"]:
            print(f"  unresolved wrapper targets: {', '.join(trace['missing'])}")
    for name, ok, detail in outcome.checks:
        print(f"  [{'ok' if ok else 'FAIL'}] {name}: {detail}")
    print(f"  attempted {outcome.attempted}, failed {outcome.failed}")


def result_line(outcome: Outcome, spec: dict) -> str:
    unit = units(spec)
    return json.dumps(
        {
            "correct": outcome.correct,
            "attempted": max(outcome.attempted, 1),
            "failed": outcome.failed,
            "metrics": {
                name: {"value": 0.0 if value is None else value, "unit": unit[name]}
                for name, (value, _) in outcome.metrics.items()
            },
        }
    )


# ------------------------------------------------------------------ #
# --repeat
# ------------------------------------------------------------------ #


def commit_id() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "nogit"


def run_set(names: list[str], modes: list[int], seed: int, seconds: int, spec: dict) -> list[Outcome]:
    outcomes = []
    for name in names:
        for trace in modes:
            outcome = run_one(name, seed, seconds, trace, spec)
            print_outcome(outcome, spec)
            print(result_line(outcome, spec), flush=True)
            outcomes.append(outcome)
    return outcomes


def save_set(outcomes: list[Outcome], index: int, spec: dict) -> Path:
    RESULTS.mkdir(exist_ok=True)
    unit = units(spec)
    path = RESULTS / f"run-{commit_id()}-{index}.json"
    payload = {
        "commit": commit_id(),
        "nproc": os.cpu_count(),
        "kernel": next((o.info.get("kernel") for o in outcomes if "kernel" in o.info), None),
        "seed": outcomes[0].seed,
        "seconds": outcomes[0].seconds,
        "runs": [
            {
                "workload": o.workload,
                "trace": o.trace,
                "correct": o.correct,
                "attempted": o.attempted,
                "failed": o.failed,
                "timed_ops": o.info.get("timed_ops"),
                "metrics": {
                    name: {"value": value, "unit": unit[name], "n": n}
                    for name, (value, n) in o.metrics.items()
                },
                "checks": [
                    {"name": name, "ok": ok, "detail": detail}
                    for name, ok, detail in o.checks
                ],
            }
            for o in outcomes
        ],
    }
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return path


def compare_sets(sets: list[list[Outcome]], spec: dict) -> bool:
    """Print K values per metric × workload; False when a pair of sets
    disagrees by more than the metric's bound (or an exact count moved)."""
    agreed = True
    print("\n== agreement between sets (worst pairwise worsening vs bound)")
    for metric in spec["end_to_end"]:
        name, bound, better = metric["name"], metric["bound"], metric["better"]
        for position, first in enumerate(sets[0]):
            if first.trace or name not in first.metrics:
                continue
            values = [s[position].metrics[name][0] for s in sets]
            worst = max(
                worsening(a, b, better)
                for i, a in enumerate(values)
                for j, b in enumerate(values)
                if i != j
            )
            ok = worst <= bound
            agreed &= ok
            shown = ", ".join(f"{v:.5g}" for v in values)
            # Quartiles need a handful of values; two sets have a range.
            spread = (
                f"spread {relative_spread(values):.1%}"
                if len(values) >= 4
                else f"range {(max(values) - min(values)) / statistics.median(values):.1%}"
            )
            print(
                f"  [{'ok' if ok else 'FAIL'}] {first.workload:<14} {name:<16}"
                f" {shown}  {spread} worst {worst:+.1%} bound {bound:.0%}"
            )
    for workload, name in EXACT:
        for position, first in enumerate(sets[0]):
            if first.workload != workload or name not in first.metrics:
                continue
            values = [s[position].metrics[name][0] for s in sets]
            ok = len(set(values)) == 1
            agreed &= ok
            print(f"  [{'ok' if ok else 'FAIL'}] {workload:<14} {name} repeats exactly: {values}")
    return agreed


# ------------------------------------------------------------------ #
# entry
# ------------------------------------------------------------------ #


def main(argv: list[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perf/run.py: no program to measure under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: both modes")
    parser.add_argument("--repeat", type=int, default=1, metavar="K")
    args = parser.parse_args(argv)

    # The recovery check runs repro.store in this process.
    sys.path.insert(0, str(SRC))
    os.environ["REPRO_KERNEL_CACHE"] = str(SCRATCH / "kernels")

    chosen = [args.workload] if args.workload else names
    modes = [args.trace] if args.trace is not None else [0, 1]
    sets = []
    for index in range(args.repeat):
        outcomes = run_set(chosen, modes, args.seed, args.seconds, spec)
        sets.append(outcomes)
        if args.repeat > 1:
            print(f"set {index + 1} written to {save_set(outcomes, index + 1, spec)}")
    ok = all(o.correct for outcomes in sets for o in outcomes)
    if args.repeat > 1:
        ok &= compare_sets(sets, spec)
        # Keep the contract's shape: the last line is one run's result.
        print(result_line(sets[-1][-1], spec))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
