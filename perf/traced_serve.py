"""Benchmark-owned launcher: time the layer entry points, then run the CLI.

``python perf/traced_serve.py TRACE.json serve twitter --port 0 …``
installs timing wrappers on each layer's entry points and calls
``repro.cli.main([...])``, so the service is constructed byte-for-byte as
``python -m repro serve`` constructs it. Spans stay in memory and are
written to ``TRACE.json`` after the server has shut down, together with
the Eq. 2 invariant check of the residents.

Wrapper resolution is lenient: a target that no longer exists is listed
under ``missing`` and the metrics that need it print ``n/a`` — a
refactor renames things, it must not fail the benchmark.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from collections.abc import Callable
from typing import Any

#: Residents whose Eq. 2 invariant is verified at shutdown (the exact
#: checker is an O(n + m) Python loop per resident).
INVARIANT_CHECKS = 6
#: Counted (per-update) calls are timed one in this many. Prime, so that a
#: loop over 64 residents does not always time the same ones.
TIMED_EVERY = 7

_now = time.perf_counter  # CLOCK_MONOTONIC: comparable with the client's stamps

# Span record slots.
_ID, _NAME, _START, _END, _PARENT, _REQUEST, _ATTRS, _COUNTED = range(8)


class Tracer:
    """In-memory span recorder with one span stack per thread."""

    def __init__(self) -> None:
        self.records: list[list] = []
        self.missing: list[str] = []
        self.service: Any = None
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[list]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def spanned(
        self,
        fn: Callable,
        name: str,
        *,
        root: bool = False,
        attrs: Callable[[Any, tuple], dict] | None = None,
    ) -> Callable:
        """Record one span per call; outside a request only roots record."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            if not stack and not root:
                return fn(*args, **kwargs)
            ident = next(self._ids)
            record = [
                ident,
                name,
                0.0,
                0.0,
                stack[-1][_ID] if stack else -1,
                stack[0][_ID] if stack else ident,
                None,
                None,
            ]
            stack.append(record)
            result = None
            record[_START] = _now()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                record[_END] = _now()
                stack.pop()
                if attrs is not None:
                    record[_ATTRS] = attrs(result, args)
                self.records.append(record)

        return wrapper

    def counted(self, fn: Callable, name: str) -> Callable:
        """Per-update functions: count every call on the enclosing span but
        time only one in TIMED_EVERY, so the wrapper does not dominate a
        2 µs call; the summed time is scaled up from the timed ones."""
        local = self._local

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            try:
                top = local.stack[-1]
            except (AttributeError, IndexError):  # outside any request
                return fn(*args, **kwargs)
            cells = top[_COUNTED]
            if cells is None:
                cells = top[_COUNTED] = {}
            cell = cells.get(name)
            if cell is None:
                cell = cells[name] = [0, 0, 0.0]  # calls, timed calls, timed seconds
            cell[0] += 1
            if cell[0] % TIMED_EVERY != 1:
                return fn(*args, **kwargs)
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[2] += _now() - start
                cell[1] += 1

        return wrapper

    def export(self) -> list[dict]:
        """Spans as dicts; counted calls become one child span per name."""
        spans = []
        for rec in self.records:
            spans.append(
                {
                    "id": rec[_ID],
                    "name": rec[_NAME],
                    "start": rec[_START],
                    "end": rec[_END],
                    "parent": rec[_PARENT],
                    "request": rec[_REQUEST],
                    "attrs": rec[_ATTRS] or {},
                }
            )
            for name, (count, timed, seconds) in (rec[_COUNTED] or {}).items():
                spent = seconds * count / timed
                spans.append(
                    {
                        "id": next(self._ids),
                        "name": name,
                        "start": rec[_START],
                        "end": rec[_START] + spent,
                        "parent": rec[_ID],
                        "request": rec[_REQUEST],
                        "attrs": {"count": count},
                    }
                )
        return spans


# ------------------------------------------------------------------ #
# targets
# ------------------------------------------------------------------ #


def _route(_result: Any, args: tuple) -> dict:
    return {"route": getattr(args[0], "path", "")}


def _push_counts(stats: Any, _args: tuple) -> dict:
    if stats is None:
        return {}
    return {"edges": stats.edge_traversals, "iterations": stats.num_iterations}


def _kernel_used(used: Any, _args: tuple) -> dict:
    return {"kernel": used}


#: (module, attribute path, span name, mode, attrs hook). Layer entry
#: points only; the span name's first two components are the layer.
TARGETS: list[tuple[str, str, str, str, Callable | None]] = [
    ("repro.api.http", "GatewayRequestHandler.do_POST", "api.http", "root", _route),
    ("repro.api.http", "GatewayRequestHandler.do_GET", "api.http", "root", _route),
    ("repro.api.requests", "request_from_dict", "api.http.parse", "span", None),
    ("repro.api.requests", "IngestBatch.from_dict", "api.http.parse", "span", None),
    ("repro.api.gateway", "Gateway.submit", "api.gateway", "span", None),
    ("repro.serve.service", "PPRService._execute_query", "serve.query", "span", None),
    ("repro.serve.service", "PPRService._execute_query_many", "serve.query", "span", None),
    ("repro.serve.service", "PPRService._execute_ingest", "serve.ingest", "span", None),
    ("repro.serve.cache", "SourceCache.get", "serve.cache", "span", None),
    ("repro.serve.cache", "SourceCache.put", "serve.cache", "span", None),
    ("repro.serve.pool", "AdmissionPool.admit", "serve.pool", "span", None),
    ("repro.core.certify", "certified_top_k", "core.certify", "span", None),
    ("repro.core.push_parallel", "parallel_local_push", "core.push", "span", _push_counts),
    ("repro.kernels", "kernel_phase", "kernels.phase", "span", _kernel_used),
    ("repro.graph.delta", "DeltaCSRGraph.apply_updates", "graph.delta.apply", "span", None),
    ("repro.graph.delta", "DeltaCSRGraph.consolidated", "graph.delta.consolidate", "span", None),
    ("repro.graph.csr", "CSRGraph.from_digraph", "graph.csr.build", "span", None),
    ("repro.store.store", "StateStore.log_batch", "store.wal", "span", None),
    ("repro.store.store", "StateStore.checkpoint", "store.checkpoint", "span", None),
    ("repro.core.invariant", "restore_invariant", "core.invariant", "count", None),
    ("repro.graph.digraph", "DynamicDiGraph.apply", "graph.apply", "count", None),
]


def install(tracer: Tracer, targets: list = TARGETS) -> None:
    """Wrap every target that resolves; list the rest in ``tracer.missing``."""
    for module_name, path, name, mode, attrs in targets:
        label = f"{module_name}.{path}"
        try:
            owner: Any = importlib.import_module(module_name)
            *parents, leaf = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            raw = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        except (ImportError, AttributeError, KeyError):
            tracer.missing.append(label)
            continue
        plain = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        if mode == "count":
            wrapped = tracer.counted(plain, name)
        else:
            wrapped = tracer.spanned(plain, name, root=mode == "root", attrs=attrs)
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, leaf, type(raw)(wrapped))
        elif isinstance(owner, type):
            setattr(owner, leaf, wrapped)
        else:
            _replace_everywhere(raw, wrapped)


def _replace_everywhere(original: Any, wrapped: Any) -> None:
    """Module-level functions are imported by name: patch every ``repro.*``
    namespace that holds the original object."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


# ------------------------------------------------------------------ #
# shutdown checks
# ------------------------------------------------------------------ #


def invariant_report(service: Any) -> dict:
    """Eq. 2 and max|R| ≤ ε on residents that reflect the current graph."""
    from repro.core.invariant import invariant_violation

    epsilon = service.config.epsilon
    fresh = [e for e in service.cache.entries() if e.version == service.graph_version]
    residual_ok = all(e.state.residual_linf() <= epsilon for e in fresh)
    # Most recently used last: check the ones the workload touched last.
    checked = fresh[-INVARIANT_CHECKS:]
    worst = max(
        (invariant_violation(e.state, service.graph, service.config.alpha) for e in checked),
        default=0.0,
    )
    return {
        "graph_version": service.graph_version,
        "fresh_residents": len(fresh),
        "invariant_checked": len(checked),
        "invariant_worst": worst,
        "invariant_ok": worst <= 1e-9,
        "residual_ok": bool(residual_ok),
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: traced_serve.py TRACE.json serve …", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[1:]
    import repro.cli  # imports every serving module the targets name

    tracer = Tracer()
    install(tracer)
    _capture_service(tracer)
    code = 1
    try:
        code = repro.cli.main(cli_args)
    finally:
        payload: dict = {"missing": tracer.missing, "spans": tracer.export()}
        if tracer.service is not None:
            payload["checks"] = invariant_report(tracer.service)
        with open(out_path, "w") as fh:
            json.dump(payload, fh)
    return code


def _capture_service(tracer: Tracer) -> None:
    """Keep a handle on the engine the gateway fronts, for the shutdown check."""
    try:
        from repro.api.gateway import Gateway
    except ImportError:
        return
    init = Gateway.__init__

    def capturing(self: Any, service: Any, *args: Any, **kwargs: Any) -> None:
        init(self, service, *args, **kwargs)
        tracer.service = service

    Gateway.__init__ = capturing  # type: ignore[method-assign]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
