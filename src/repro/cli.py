"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    List the paper-dataset analogs and their scaling.
``figure <fig4..fig10> [--dataset D] [--slides N]``
    Regenerate one evaluation figure's table.
``ablation <loss|batching|frontier> [--dataset D]``
    Run one ablation study.
``track <dataset> [--slides N] [--epsilon E]``
    Stream sliding-window slides through a tracker and report per-slide
    operation counts, simulated latency, and the certified top-5.
``store-checkpoint <dataset> --root DIR [--slides N] [--sources N]``
    Stream a workload through a *persisted* service (WAL + checkpoints
    under ``--root``) and record its served top-k answers for later
    verification; see ``docs/persistence.md``.
``store-inspect --root DIR``
    List a store's checkpoints and WAL segments (torn tails included).
``store-recover --root DIR [--verify]``
    Recover a service from a store and serve from it; ``--verify`` checks
    the answers bit-for-bit against the ones ``store-checkpoint`` served.
``serve <dataset> [--host H] [--port P] [--hubs N] [--replicas N]``
    Run the typed-gateway HTTP front-end (:mod:`repro.api.http`) over a
    deterministic dataset-analog service: ``POST /v1/query``,
    ``POST /v1/ingest``, ``GET /v1/stats``, ``GET /v1/healthz``
    (liveness), ``GET /v1/readyz`` (readiness — 503 while degraded).
    With ``--replicas N`` the gateway is the replicated cluster tier
    (:mod:`repro.cluster`): N worker processes serve reads, writes ship
    as ordered deltas, and a dead primary fails over to the
    most-caught-up replica. With ``--shards N`` it is the *partitioned*
    shard tier (:mod:`repro.shard`): N worker processes each own a
    vertex slice of the graph and its PPR state, writes apply on every
    shard, and cross-shard pushes exchange frontier rows through the
    coordinator. ``--store DIR`` persists ingest through a
    WAL+checkpoint store (per-shard stores plus a recovery manifest
    under ``--shards``); ``--chaos PLAN.json`` arms a deterministic
    fault-injection plan (:mod:`repro.chaos`, see ``docs/faults.md``).
    ``--kernel compiled|numpy|auto`` selects the push kernel
    (:mod:`repro.kernels`) for every process of the tier and fails fast
    when ``compiled`` is forced on a host that cannot build one.
    SIGTERM/SIGINT shut down gracefully — stop accepting, drain
    admitted requests, checkpoint if dirty, join replicas — bounded by
    ``--drain-timeout``. ``--trace`` turns on end-to-end request tracing
    (:mod:`repro.obs`) at ``--trace-sample`` rate, queryable via
    ``GET /v1/trace/<id>`` and ``GET /v1/slow``; ``--trace-export``
    additionally appends every finished span to a JSONL file for
    ``repro trace export``. See ``docs/api.md``, ``docs/cluster.md``,
    and ``docs/observability.md``.
``trace export --input SPANS.jsonl --out TRACE.json [--trace-id ID]``
    Convert a span JSONL sink (``serve --trace-export``) into the Chrome
    ``trace_event`` format loadable in ``chrome://tracing`` / Perfetto.
``load-bench <dataset> [--tiny]``
    Open-loop goodput knee curve: measure closed-loop saturation, then
    replay Zipf multi-tenant traffic at fractions of it up to 2x through
    a bounded admission queue vs an unprotected unbounded queue; exits
    nonzero unless goodput plateaus under overload (>= 70% of peak at
    2x, waived in ``--tiny`` mode and on starved runners) with
    ANY-consistency reads shed first. See ``docs/load.md``.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

import numpy as np

from .config import Backend
from .core.certify import certified_top_k, convergence_report
from .core.tracker import DynamicPPRTracker
from .errors import ConfigError
from .graph.datasets import DATASETS
from .graph.workloads import WorkloadSpec, default_config, prepare_workload
from .utils.tables import format_table


def _cmd_datasets(_: argparse.Namespace) -> int:
    rows = [
        [
            spec.name,
            f"{spec.paper_vertices:,} / {spec.paper_edges:,}",
            f"{spec.num_vertices:,} / {spec.num_edges:,}",
            "directed" if spec.directed else "undirected",
            f"{spec.scale_factor:,.0f}x",
        ]
        for spec in DATASETS.values()
    ]
    print(
        format_table(
            ["dataset", "paper n / m", "analog n / m", "kind", "scale"],
            rows,
            title="Paper-dataset analogs",
        )
    )
    return 0


#: Choices of ``repro figure`` / ``repro ablation``, spelled here so that
#: building the parser does not import :mod:`repro.bench`; the tests pin
#: them to the ``FIGURES`` / ``ABLATIONS`` registries the handlers read.
FIGURE_NAMES = ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10")
ABLATION_NAMES = ("loss", "batching", "frontier")


def _cmd_figure(args: argparse.Namespace) -> int:
    from .bench.figures import run_figure

    result = run_figure(args.name, dataset=args.dataset, num_slides=args.slides)
    print(result.table())
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    from .bench.ablations import ABLATIONS

    print(ABLATIONS[args.name](dataset=args.dataset).table())
    return 0


def _cmd_track(args: argparse.Namespace) -> int:
    from .parallel.cost_model import CPUCostModel

    prepared = prepare_workload(WorkloadSpec(dataset=args.dataset))
    config = default_config(epsilon=args.epsilon).with_(
        backend=Backend.NUMPY, workers=args.workers
    )
    graph = prepared.initial_graph()
    tracker = DynamicPPRTracker(graph, prepared.source, config)
    model = CPUCostModel(workers=args.workers)
    print(f"workload: {prepared.describe()}")
    print(f"config:   {config.describe()}")
    window = prepared.new_window()
    for slide in window.slides(args.slides):
        batch = tracker.apply_batch(list(slide.updates))
        latency = model.parallel_latency(batch.push, num_updates=len(slide.updates))
        report = convergence_report(tracker.state, batch.push)
        print(
            f"slide {slide.step}: {len(slide.updates)} updates -> {report}"
            f" | simulated {latency * 1e3:.3f} ms"
        )
    print("\ncertified top-5:")
    for entry in certified_top_k(tracker.state, 5):
        mark = "certified" if entry.position_certified else "uncertain"
        print(f"  v{entry.vertex:<8d} {entry.estimate:.8f}  [{mark}]")
    return 0


#: Name of the served-answer transcript ``store-checkpoint`` leaves next
#: to the store, consumed by ``store-recover --verify``.
TOPK_TRANSCRIPT = "served_topk.txt"


def _topk_lines(service, sources: Sequence[int], k: int) -> list[str]:
    """Served certified-top-k answers as exact, diffable text lines.

    Floats are rendered with ``repr`` (shortest round-trip form), so two
    services produce identical lines iff their answers are bit-identical.
    """
    lines = []
    for s in sources:
        for rank, entry in enumerate(service.query(int(s), k).entries):
            lines.append(f"{s} {rank} {entry.vertex} {entry.estimate!r}")
    return lines


def _cmd_store_checkpoint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .config import StoreConfig
    from .serve import workload_service
    from .store.store import StateStore

    service, prepared = workload_service(
        args.dataset,
        epsilon=args.epsilon,
        workers=args.workers,
        cache_capacity=args.sources,
    )
    # Warm the top out-degree sources *before* attaching the store, so its
    # baseline checkpoint makes their states durable.
    dout = service.graph.out_degree_array()
    mix = [int(s) for s in np.argsort(-dout, kind="stable")[: args.sources]]
    service.query_many(mix)
    service.attach_store(
        StateStore(
            args.root,
            StoreConfig(root=str(args.root), checkpoint_interval=args.interval),
        )
    )
    for slide in prepared.new_window().slides(args.slides):
        service.ingest(slide)
    # Deliberately no final checkpoint: with slides % interval != 0 the WAL
    # keeps a tail past the last checkpoint, so a recover from this store
    # exercises the full checkpoint + replay path.
    store = service.store
    store.wait()
    verify = mix[: min(5, len(mix))]
    lines = _topk_lines(service, verify, args.k)
    transcript = Path(args.root) / TOPK_TRANSCRIPT
    transcript.write_text("\n".join(lines) + "\n")
    status = store.status()
    print(f"persisted {args.dataset}: version {service.graph_version},"
          f" {len(service.resident_sources())} resident sources,"
          f" {len(service.hubs)} hubs")
    print(f"checkpoints: {[c.version for c in status.checkpoints]}"
          f" | graph bases: {list(status.bases)}"
          f" | wal records: {status.wal_records}"
          f" | replay on recover: {status.replay_batches}"
          f" (+ {status.graph_replay_batches} graph-only)")
    print(f"served top-{args.k} transcript: {transcript}"
          f" ({len(verify)} sources)")
    store.close()
    return 0


def _cmd_store_inspect(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .errors import StoreError
    from .store.checkpoint import (
        checkpoint_summary,
        checkpoint_version,
        graph_base_version,
        list_checkpoints,
        list_graph_bases,
    )
    from .store.wal import SEGMENT_PREFIX, SEGMENT_SUFFIX, scan_segment

    root = Path(args.root)
    if not root.exists():
        print(f"store directory not found: {root}", file=sys.stderr)
        return 1
    bases = {graph_base_version(p): p for p in list_graph_bases(root / "graph")}
    checkpoint_rows = []
    for p in list_checkpoints(root / "checkpoints"):
        row = [p.name, str(checkpoint_version(p)), f"{p.stat().st_size:,}"]
        try:
            summary = checkpoint_summary(p)
        except StoreError:
            row += ["unreadable", "-", "-", "-"]
        else:
            row.append(str(summary["format"]))
            if "nnz" in summary:
                base = summary["base"]
                row.append(f"v{base}" if base in bases else f"v{base} MISSING")
                row += [f"{summary['nnz']:,}", f"{summary['density']:.1%}"]
            else:  # a format this build cannot restore
                row += ["-", "-", "-"]
        checkpoint_rows.append(row)
    print(
        format_table(
            ["checkpoint", "version", "bytes", "format", "base", "nnz", "density"],
            checkpoint_rows or [["(none)", "-", "-", "-", "-", "-", "-"]],
            title=f"Checkpoints — {root}",
        )
    )
    print()
    print(
        format_table(
            ["graph base", "version", "bytes"],
            [[p.name, str(v), f"{p.stat().st_size:,}"] for v, p in bases.items()]
            or [["(none)", "-", "-"]],
            title="Graph bases",
        )
    )
    print()
    wal_dir = root / "wal"
    segment_rows = []
    for path in sorted(wal_dir.glob(f"{SEGMENT_PREFIX}*{SEGMENT_SUFFIX}")):
        scan = scan_segment(path)
        seqs = [r.seq for r in scan.records]
        span = f"{seqs[0]}..{seqs[-1]}" if seqs else "-"
        segment_rows.append(
            [
                path.name,
                str(len(scan.records)),
                span,
                "clean" if scan.clean else f"TORN ({scan.torn_bytes} bytes)",
            ]
        )
    print(
        format_table(
            ["segment", "records", "seqs", "tail"],
            segment_rows or [["(none)", "-", "-", "-"]],
            title="WAL segments",
        )
    )
    return 0


def _cmd_store_recover(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .errors import StoreError
    from .store.recovery import recover

    try:
        result = recover(args.root, attach=False)
    except StoreError as exc:
        print(f"recovery failed: {exc}", file=sys.stderr)
        return 1
    service = result.service
    print(result.describe())
    print(f"resident sources: {service.resident_sources()}")
    transcript = Path(args.root) / TOPK_TRANSCRIPT
    if not transcript.exists():
        sources = service.resident_sources()[-5:]
        for line in _topk_lines(service, sources, args.k):
            print(line)
        if args.verify:
            print(f"nothing to verify against ({transcript} missing)", file=sys.stderr)
            return 1
        return 0
    recorded = transcript.read_text().splitlines()
    sources = list(dict.fromkeys(int(line.split()[0]) for line in recorded))
    # Serve at the transcript's own depth — a --k differing from the one
    # store-checkpoint used must not masquerade as an answer mismatch.
    k = max(int(line.split()[1]) for line in recorded) + 1
    served = _topk_lines(service, sources, k)
    for line in served:
        print(line)
    if args.verify:
        if served == recorded:
            print(f"verify: OK — {len(served)} answer rows bit-identical")
            return 0
        diffs = sum(1 for a, b in zip(served, recorded) if a != b)
        diffs += abs(len(served) - len(recorded))
        print(f"verify: MISMATCH — {diffs} row(s) differ", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading
    import time

    from . import chaos
    from .api.gateway import Gateway
    from .api.http import GatewayRequestHandler, make_server
    from .api.requests import CheckpointNow
    from .serve import workload_service
    from .chaos import FaultPlan
    from .cluster import ClusterGateway
    from .config import ApiConfig, ClusterConfig, ObsConfig, StoreConfig
    from .errors import ClusterError, GraphError
    from .kernels import describe
    from .store.store import StateStore

    if args.kernel is not None:
        # Environment, not config: replica and shard workers inherit it,
        # so one flag selects the kernel in every process of the tier.
        import os

        os.environ["REPRO_KERNEL"] = args.kernel
    kernel_info = describe()
    if kernel_info["backend"] == "unavailable":
        print(f"kernel:   {kernel_info['reason']}", file=sys.stderr)
        return 2
    if args.shards > 0 and args.replicas > 0:
        print(
            "--shards and --replicas are different scaling tiers (write"
            " partitioning vs read replication); run one per process,"
            " stacking them is future work (see docs/sharding.md)",
            file=sys.stderr,
        )
        return 2
    if args.shards > 0 and args.hubs > 0:
        print(
            "the sharded tier does not support the hub tier"
            " (a hub vector is global state with no owning shard);"
            " drop --hubs or --shards",
            file=sys.stderr,
        )
        return 2
    service, prepared = workload_service(
        args.dataset,
        epsilon=args.epsilon,
        workers=args.workers,
        cache_capacity=args.cache,
        num_hubs=args.hubs,
        top_k=args.k,
    )
    if args.store is not None and args.shards == 0:
        store = StateStore(args.store, StoreConfig(root=args.store))
        service.attach_store(store)
        print(f"store:    {args.store} (WAL + checkpoints)")
    if args.chaos is not None:
        plan = FaultPlan.load(args.chaos)
        chaos.install(plan)
        print(f"chaos:    {plan.name or args.chaos} ({len(plan)} faults armed)")
    obs_config = ObsConfig(
        enabled=args.trace or args.trace_export is not None,
        sample_rate=args.trace_sample,
        slowlog_threshold_ms=args.slow_threshold,
        export_path=args.trace_export,
    )
    api_config = ApiConfig(host=args.host, port=args.port, obs=obs_config)
    cluster = None
    shards_gw = None
    try:
        if args.shards > 0:
            from .config import ShardConfig
            from .shard import ShardedGateway

            # Each shard persists under --store/shard-NN/ with a coordinator
            # manifest; the fault plan installed above rides the shard specs.
            shards_gw = ShardedGateway(
                service.graph,
                ShardConfig(shards=args.shards),
                api_config,
                ppr=service.config,
                serve=service.serve.with_(store=None),
                store_root=args.store,
            )
            gateway = shards_gw
            if args.store is not None:
                print(f"store:    {args.store} (per-shard WAL + checkpoints,"
                      " coordinator manifest)")
        elif args.replicas > 0:
            cluster = ClusterGateway(
                service, ClusterConfig(replicas=args.replicas), api_config
            )
            gateway = cluster
        else:
            gateway = Gateway(service, api_config)
    except (ClusterError, GraphError) as exc:
        # Workers bootstrap from shared memory only: a host that cannot
        # provide the segment (or spawn the tier) is an operator error.
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    if args.verbose:
        GatewayRequestHandler.log_traffic = True
    server = make_server(gateway)

    # Graceful shutdown: SIGTERM (orchestrators) and SIGINT both stop
    # accepting connections, then drain in-flight work, flush/checkpoint
    # the store, and join the replicas — all bounded by --drain-timeout.
    # server.shutdown() blocks until serve_forever exits, so the handler
    # fires it from a helper thread rather than the serving main thread.
    stop_signal: list[str] = []

    def _request_stop(signum: int, _frame: object) -> None:
        if stop_signal:  # second signal: let the default disposition kill us
            signal.signal(signum, signal.SIG_DFL)
            signal.raise_signal(signum)
            return
        stop_signal.append(signal.Signals(signum).name)
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {
        sig: signal.signal(sig, _request_stop)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    print(f"workload: {prepared.describe()}")
    print(f"service:  {service}")
    print(f"kernel:   {kernel_info['backend']} ({kernel_info['reason']})")
    if cluster is not None:
        print(f"cluster:  {cluster}")
    if shards_gw is not None:
        print(f"shards:   {shards_gw}")
    print(f"listening on {server.url} "
          "(POST /v1/query /v1/ingest, GET /v1/stats /v1/healthz /v1/readyz)")
    if obs_config.enabled:
        print(f"tracing:  sampling {obs_config.sample_rate:.0%} of requests"
              f" (GET /v1/trace/<id>, GET /v1/slow)"
              + (f", spans -> {obs_config.export_path}"
                 if obs_config.export_path else ""))
    try:
        server.serve_forever()
    finally:
        deadline = time.monotonic() + args.drain_timeout
        print(f"\nshutting down ({stop_signal[0] if stop_signal else 'exit'}):"
              f" draining for up to {args.drain_timeout:.0f}s")
        server.server_close()
        admission = getattr(gateway, "admission", None)
        if admission is not None:
            while admission.depth > 0 and time.monotonic() < deadline:
                time.sleep(0.05)
            if admission.depth:
                print(f"drain:    {admission.depth} request(s) abandoned")
        store = service.store
        if store is not None and not store.failed:
            try:
                store.wait()  # a checkpoint the signal caught mid-file
                if store.dirty > 0:
                    # Through the gateway, never around it: handler threads
                    # are daemons, so an ingest may still be mid-batch here.
                    # The request queues behind it on the gateway lock; a
                    # direct store.checkpoint() would snapshot half a batch.
                    result = gateway.submit(CheckpointNow())
                    if result.error is None:
                        print(f"store:    checkpointed at v{result.snapshot_version}")
                store.close()
            except StoreError as exc:
                print(f"store:    {exc}", file=sys.stderr)
        if cluster is not None:
            cluster.close(
                deadline_s=max(0.5, deadline - time.monotonic())
            )
        if shards_gw is not None:
            if args.store is not None and shards_gw.dirty:
                result = shards_gw.submit(CheckpointNow())
                if result.error is None:
                    print(f"store:    checkpointed all shards at"
                          f" v{shards_gw._head}")
            shards_gw.close(
                deadline_s=max(0.5, deadline - time.monotonic())
            )
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return 0


def _cmd_load_bench(args: argparse.Namespace) -> int:
    from .bench.load import available_cores, load_benchmark

    if args.tiny:
        # CI smoke: short runs, coarse sweep — asserts the whole pipeline
        # (trace generation, virtual-time replay, both arms, shedding
        # order) without the full sweep's runtime. The plateau bar is
        # waived: on a 1-core starved runner the saturation estimate is
        # too noisy to hold a 70% line against.
        duration_s, fractions = 1.0, (0.5, 1.0, 2.0)
    else:
        duration_s, fractions = args.duration, (0.25, 0.5, 1.0, 1.5, 2.0)
    result = load_benchmark(
        args.dataset,
        num_sources=args.sources,
        duration_s=duration_s,
        slo_ms=args.slo_ms,
        queue_capacity=args.queue,
        fractions=fractions,
        k=args.k,
        epsilon=args.epsilon,
        workers=args.workers,
        seed=args.seed,
    )
    print(result.table())
    bar = 0.7
    ok = result.any_shed_first
    shed_verdict = (
        "ANY-first" if result.any_shed_first else "PRIORITY ORDER VIOLATED"
    )
    if not args.tiny and available_cores() > 1:
        ok = ok and result.plateau_ratio >= bar
        verdict = (
            f"{result.plateau_ratio:.0%} of peak goodput retained at 2x"
            f" (bar {bar:.0%})"
        )
    else:
        verdict = (
            f"{result.plateau_ratio:.0%} of peak goodput retained at 2x"
            f" (bar waived: {'tiny mode' if args.tiny else 'too few cores'})"
        )
    print(
        f"overload behavior: {verdict} — shedding {shed_verdict},"
        f" unprotected arm {result.unprotected_at_2x:,.0f}/s"
        f" vs {result.goodput_at_2x:,.0f}/s with admission"
    )
    return 0 if ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .obs.export import export_chrome_trace, read_jsonl

    if not Path(args.input).exists():
        print(f"span sink not found: {args.input}", file=sys.stderr)
        return 1
    spans = read_jsonl(args.input)
    if args.trace_id:
        spans = [s for s in spans if s.get("trace_id") == args.trace_id]
        if not spans:
            print(f"no spans for trace {args.trace_id}", file=sys.stderr)
            return 1
    count = export_chrome_trace(spans, args.out)
    traces = len({s.get("trace_id") for s in spans})
    print(f"wrote {count} events ({traces} trace(s)) to {args.out}"
          " — load in chrome://tracing or https://ui.perfetto.dev")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel Personalized PageRank on Dynamic Graphs (VLDB'17) CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list dataset analogs").set_defaults(
        func=_cmd_datasets
    )

    fig = sub.add_parser("figure", help="regenerate one evaluation figure")
    fig.add_argument("name", choices=FIGURE_NAMES)
    fig.add_argument("--dataset", default="youtube", choices=sorted(DATASETS))
    fig.add_argument("--slides", type=int, default=2)
    fig.set_defaults(func=_cmd_figure)

    abl = sub.add_parser("ablation", help="run one ablation study")
    abl.add_argument("name", choices=ABLATION_NAMES)
    abl.add_argument("--dataset", default="youtube", choices=sorted(DATASETS))
    abl.set_defaults(func=_cmd_ablation)

    track = sub.add_parser("track", help="stream a workload through a tracker")
    track.add_argument("dataset", choices=sorted(DATASETS))
    track.add_argument("--slides", type=int, default=3)
    track.add_argument("--epsilon", type=float, default=1e-5)
    track.add_argument("--workers", type=int, default=40)
    track.set_defaults(func=_cmd_track)

    serve_http = sub.add_parser(
        "serve", help="run the typed-gateway HTTP front-end"
    )
    serve_http.add_argument("dataset", choices=sorted(DATASETS))
    serve_http.add_argument("--host", default="127.0.0.1")
    serve_http.add_argument("--port", type=int, default=8707)
    serve_http.add_argument("--cache", type=int, default=64)
    serve_http.add_argument("--hubs", type=int, default=0)
    serve_http.add_argument("--k", type=int, default=10)
    serve_http.add_argument("--epsilon", type=float, default=1e-5)
    serve_http.add_argument("--workers", type=int, default=40)
    serve_http.add_argument(
        "--trace", action="store_true",
        help="sample end-to-end request traces (GET /v1/trace/<id>)",
    )
    serve_http.add_argument(
        "--trace-sample", type=float, default=1.0, metavar="RATE",
        help="fraction of requests to trace when --trace is on (default 1.0)",
    )
    serve_http.add_argument(
        "--trace-export", default=None, metavar="PATH",
        help="append finished spans to a JSONL file (implies tracing on)",
    )
    serve_http.add_argument(
        "--slow-threshold", type=float, default=50.0, metavar="MS",
        help="slow-query log threshold in milliseconds (default 50)",
    )
    serve_http.add_argument(
        "--replicas",
        type=int,
        default=0,
        help="serve through N replica worker processes (0 = single-process)",
    )
    serve_http.add_argument(
        "--shards",
        type=int,
        default=0,
        help="partition the graph across N shard worker processes"
        " (0 = unsharded; exclusive with --replicas)",
    )
    serve_http.add_argument(
        "--store", default=None, metavar="DIR",
        help="persist ingest through a WAL+checkpoint store at DIR",
    )
    serve_http.add_argument(
        "--chaos", default=None, metavar="PLAN.json",
        help="arm a deterministic fault-injection plan (repro.chaos)",
    )
    serve_http.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="S",
        help="graceful-shutdown budget: drain, checkpoint, join replicas",
    )
    serve_http.add_argument(
        "--kernel",
        default=None,
        choices=("auto", "compiled", "numpy"),
        help="push-kernel selection (default: REPRO_KERNEL env, else auto);"
        " 'compiled' fails fast when no C kernel can be built",
    )
    serve_http.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    serve_http.set_defaults(func=_cmd_serve)

    ldb = sub.add_parser(
        "load-bench",
        help="open-loop goodput knee: admission control vs unprotected overload",
    )
    ldb.add_argument("dataset", choices=sorted(DATASETS))
    ldb.add_argument("--sources", type=int, default=48)
    ldb.add_argument(
        "--duration", type=float, default=4.0, help="seconds of traffic per rate"
    )
    ldb.add_argument(
        "--slo-ms", type=float, default=100.0, help="latency SLO (and deadline)"
    )
    ldb.add_argument(
        "--queue", type=int, default=8, help="admission queue capacity"
    )
    ldb.add_argument("--k", type=int, default=10)
    ldb.add_argument("--epsilon", type=float, default=1e-5)
    ldb.add_argument("--workers", type=int, default=40)
    ldb.add_argument("--seed", type=int, default=17)
    ldb.add_argument(
        "--tiny",
        action="store_true",
        help="short runs, coarse sweep, no plateau bar (the CI smoke mode)",
    )
    ldb.set_defaults(func=_cmd_load_bench)

    ckpt = sub.add_parser(
        "store-checkpoint",
        help="stream a workload through a persisted (WAL+checkpoint) service",
    )
    ckpt.add_argument("dataset", choices=sorted(DATASETS))
    ckpt.add_argument("--root", required=True, help="store directory")
    ckpt.add_argument("--slides", type=int, default=4)
    ckpt.add_argument("--sources", type=int, default=16)
    ckpt.add_argument("--interval", type=int, default=3, help="checkpoint every N batches")
    ckpt.add_argument("--k", type=int, default=5)
    ckpt.add_argument("--epsilon", type=float, default=1e-5)
    ckpt.add_argument("--workers", type=int, default=40)
    ckpt.set_defaults(func=_cmd_store_checkpoint)

    inspect = sub.add_parser(
        "store-inspect", help="list a store's checkpoints and WAL segments"
    )
    inspect.add_argument("--root", required=True, help="store directory")
    inspect.set_defaults(func=_cmd_store_inspect)

    recover_p = sub.add_parser(
        "store-recover", help="recover a service from a store and serve from it"
    )
    recover_p.add_argument("--root", required=True, help="store directory")
    recover_p.add_argument(
        "--k",
        type=int,
        default=5,
        help="ranking depth when no transcript exists (else the transcript's)",
    )
    recover_p.add_argument(
        "--verify",
        action="store_true",
        help="compare answers bit-for-bit against the store-checkpoint transcript",
    )
    recover_p.set_defaults(func=_cmd_store_recover)

    trace_p = sub.add_parser(
        "trace", help="work with span sinks written by serve --trace-export"
    )
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)
    trace_export = trace_sub.add_parser(
        "export", help="convert a span JSONL sink to Chrome trace_event JSON"
    )
    trace_export.add_argument(
        "--input", required=True, help="span JSONL sink (serve --trace-export)"
    )
    trace_export.add_argument(
        "--out", required=True, help="output Chrome trace_event JSON path"
    )
    trace_export.add_argument(
        "--trace-id", default=None, help="export only this trace's spans"
    )
    trace_export.set_defaults(func=_cmd_trace)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        # A flag value a config object refuses is a usage error, reported
        # like argparse's own: one line, exit status 2.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
