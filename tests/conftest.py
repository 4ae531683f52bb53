"""Shared fixtures: the paper's worked-example graph, random graphs, configs."""

from __future__ import annotations

import contextlib
import json
import socket
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro import Backend, DynamicDiGraph, PPRConfig, PushVariant

# Keep hypothesis fast and deterministic in CI-style runs.
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("repro")


@pytest.fixture(scope="session", autouse=True)
def _sweep_shm():
    """No test run may leave ``repro-shm-*`` segments behind.

    SIGKILL tests can orphan shared-memory snapshots faster than the
    stdlib resource tracker reclaims them; sweeping dead-creator
    segments at session teardown keeps /dev/shm clean between runs.
    """
    yield
    from repro.graph.shm import sweep_stale

    sweep_stale()


@pytest.fixture(autouse=True)
def _reset_obs():
    """The tracer is process-global; no test may leak spans into the next."""
    from repro import obs

    yield
    obs.reset()


@pytest.fixture(autouse=True)
def _reset_chaos():
    """The fault injector is process-global; no plan may leak across tests."""
    from repro import chaos

    yield
    chaos.reset()


@pytest.fixture(autouse=True)
def _no_leaked_checkpoint_writer():
    """A store's writer thread is one bounded write, never a resident
    thread: whatever a test abandoned mid-flight must finish by itself."""
    import threading

    yield
    for thread in threading.enumerate():
        if thread.name.startswith("checkpoint-writer"):
            thread.join(timeout=10)
            assert not thread.is_alive(), f"{thread.name} is still running"


def self_contained_checkpoint(root, service):
    """Write a checkpoint of ``service`` under store root ``root`` that
    starts its own graph base (helper, not a fixture); returns its path."""
    from repro.store.checkpoint import capture_checkpoint, write_checkpoint

    return write_checkpoint(root, capture_checkpoint(service, None))


@contextlib.contextmanager
def serving(gateway):
    """The HTTP front-end over ``gateway`` on an ephemeral port, for the
    length of the block (helper, not a fixture)."""
    from repro.api import make_server

    server = make_server(gateway, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


#: How long a test waits on another thread before calling it a hang.
WAIT_S = 20.0


def lock_held(service) -> bool:
    """Whether the calling thread holds ``service``'s gateway lock."""
    return service.gateway._lock._is_owned()


class Parked:
    """Parks the first lock-released push of ``service`` until :meth:`go`
    (helper, not a fixture).

    The hook sits on the pool's ``admit`` and parks only a push that
    runs with the gateway lock given up; a service that never releases
    never parks, and :meth:`read` says so.
    """

    def __init__(self, service) -> None:
        self.service = service
        self.inside = threading.Event()
        self._go = threading.Event()
        real = service.pool.admit

        def admit(view, source, capacity):
            if not lock_held(service) and not self.inside.is_set():
                self.inside.set()
                assert self._go.wait(WAIT_S), "parked push never released"
            return real(view, source, capacity)

        service.pool.admit = admit
        self.response = None
        self._thread: threading.Thread | None = None

    def read(self, source: int, k: int = 5) -> None:
        """Start a cold read of ``source`` and wait until it is parked."""
        from repro.api.requests import TopKQuery

        def run():
            self.response = self.service.gateway.submit(TopKQuery(source=source, k=k))

        self._thread = threading.Thread(target=run)
        self._thread.start()
        assert self.inside.wait(WAIT_S), "the cold read never released the lock"

    def go(self):
        """Let the parked push finish; returns the parked read's response."""
        self._go.set()
        self._thread.join(WAIT_S)
        assert not self._thread.is_alive()
        del self.service.pool.admit  # the hook: back to the class's method
        return self.response


@pytest.fixture
def server_sends(monkeypatch):
    """Every ``send``/``sendall`` a socket in this process makes, as
    ``(local_port, nbytes)`` in call order: a server's accepted sockets
    are the ones whose local port is the server's."""
    calls: list[tuple[int, int]] = []
    for name in ("send", "sendall"):

        def counting(sock, data, *args, _real=getattr(socket.socket, name)):
            try:
                calls.append((sock.getsockname()[1], len(data)))
            except (OSError, IndexError):  # closed, or not an inet socket
                pass
            return _real(sock, data, *args)

        monkeypatch.setattr(socket.socket, name, counting)
    return calls


def exchange(conn, method, route, payload=None):
    """One request on a persistent ``http.client`` connection: the
    status, the response object (headers) and the whole body."""
    body = None if payload is None else json.dumps(payload).encode()
    conn.request(
        method, route, body=body,
        headers={"Content-Type": "application/json"} if body else {},
    )
    response = conn.getresponse()
    return response.status, response, response.read()


@pytest.fixture
def paper_graph() -> DynamicDiGraph:
    """The 4-vertex graph of the paper's Figures 1-3.

    Edges {2->1, 3->1, 3->2, 4->3, 1->4}; source s=1, alpha=0.5, eps=0.1.
    Derived from the numbers in the figures: the parallel push from
    scratch must yield P=(0.5, 0.25, 0.1875, 0.0625).
    """
    return DynamicDiGraph([(2, 1), (3, 1), (3, 2), (4, 3), (1, 4)])


@pytest.fixture
def paper_config() -> PPRConfig:
    """The alpha/epsilon of the paper's running examples."""
    return PPRConfig(alpha=0.5, epsilon=0.1, variant=PushVariant.VANILLA, backend=Backend.PURE)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20170901)  # the paper's publication month


def random_graph(
    rng: np.random.Generator, n: int = 30, m: int = 120
) -> DynamicDiGraph:
    """A small random digraph (helper, not a fixture, for parametrized use)."""
    from repro.graph.generators import erdos_renyi_graph

    edges = erdos_renyi_graph(n, m, rng=rng)
    return DynamicDiGraph(map(tuple, edges.tolist()))


def rebuilt_view_after(graph, batch):
    """``CSRGraph.from_digraph`` of ``graph`` as it will be after ``batch``.

    The reference view of every delta-lineage bit-identity test, built
    from an order-preserving copy so the live graph is left for the
    consumer under test to mutate.
    """
    from repro.graph import CSRGraph

    after = graph.copy()
    after.apply_batch(batch)
    return CSRGraph.from_digraph(after)


def ingest_from_rebuild(service, batch):
    """Ingest ``batch`` through the ``ingest(snapshot=...)`` hook, so the
    service pushes on a freshly built frozen CSR and never on an overlay."""
    return service.ingest(batch, snapshot=rebuilt_view_after(service.graph, batch))


def all_variant_configs(
    alpha: float = 0.2, epsilon: float = 1e-4, workers: int = 4
) -> list[PPRConfig]:
    """One config per (variant, backend) combination."""
    configs = []
    for variant in PushVariant:
        for backend in (Backend.PURE, Backend.NUMPY):
            configs.append(
                PPRConfig(
                    alpha=alpha,
                    epsilon=epsilon,
                    variant=variant,
                    backend=backend,
                    workers=workers,
                )
            )
    return configs
