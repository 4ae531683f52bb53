"""Span arithmetic, the launcher's wrappers, and the traced metrics."""

import pytest

from perf import metrics as mx
from perf import spans as sp
from perf.loadgen import Sample, check_top_k
from perf.traced_serve import Tracer, install


def span(ident, name, start, end, parent=-1, request=0, **attrs):
    return {"id": ident, "name": name, "start": start, "end": end,
            "parent": parent, "request": request, "attrs": attrs}


TREE = [
    span(0, "api.http", 0.0, 10.0, route="/v1/query"),
    span(1, "api.http.parse", 0.5, 1.0, parent=0),
    span(2, "api.gateway", 1.0, 9.0, parent=0),
    span(3, "serve.query", 1.5, 8.5, parent=2),
    span(4, "serve.pool", 2.0, 6.0, parent=3),
    span(5, "core.push", 2.5, 5.5, parent=4, edges=100, iterations=4),
    span(6, "kernels.phase", 3.0, 4.0, parent=5, kernel="compiled"),
    span(7, "kernels.phase", 4.0, 5.0, parent=5, kernel="numpy"),
    span(8, "core.certify", 6.0, 8.0, parent=3),
]


def test_self_time_is_span_minus_children():
    own = sp.self_times(TREE)
    assert own[0] == pytest.approx(10.0 - 0.5 - 8.0)
    assert own[3] == pytest.approx(7.0 - 4.0 - 2.0)
    assert own[5] == pytest.approx(3.0 - 2.0)
    assert own[6] == pytest.approx(1.0)
    assert sum(own.values()) == pytest.approx(sp.duration(TREE[0]))
    assert sp.reconciliation_error(TREE) == pytest.approx(0.0)


def test_layers_are_the_first_two_name_components():
    layers = sp.layer_self_times(TREE)
    assert layers["api.http"] == pytest.approx(1.5 + 0.5)  # handler + parse
    assert layers["kernels.phase"] == pytest.approx(2.0)
    assert sum(layers.values()) == pytest.approx(10.0)


def test_cold_push_is_a_push_under_the_admission_pool():
    index = {s["id"]: s for s in TREE}
    assert sp.has_ancestor(TREE[5], index, "serve.pool")
    assert not sp.has_ancestor(TREE[8], index, "serve.pool")


def test_traced_metrics_from_a_synthetic_request():
    sample = Sample("read", sent=-1.0, done=12.0, engine_s=7.0, updates=0)
    phase = mx.Phase(clients=1, start=-1.0, end=12.0, samples=[sample], has_writes=False)
    out, report = mx.traced(TREE, phase, [3500.0], "read")
    assert out["api.http.wire_p50_ms"][0] == pytest.approx(13000.0 - 10000.0)
    assert out["core.push.cold_ms"] == (pytest.approx(3000.0), 1)
    assert out["core.push.refresh_ms"] == (None, 0)
    assert out["core.push.edges_per_cold_push"][0] == 100
    assert out["kernels.compiled_share"][0] == 0.5
    assert out["core.certify.ms_per_read"][0] == pytest.approx(2000.0)
    assert out["serve.self_ms_per_read"][0] == pytest.approx(1000.0 + 1000.0)
    assert out["store.checkpoint.ms"] == (None, 0)
    assert out["trace.overhead_pct"][0] == pytest.approx(100.0)
    assert report["unmatched"] == 0 and report["reconcile_worst"] == pytest.approx(0.0)
    assert report["shares"]["read"]["kernels.phase"] == pytest.approx(0.2)


def test_requests_are_matched_by_containment():
    roots = [span(i, "api.http", i + 0.2, i + 0.8, request=i, route="/v1/query") for i in range(3)]
    roots.append(span(9, "api.http", 1.85, 1.9, request=9, route="/v1/stats"))
    samples = [Sample("read", float(i), i + 1.0, 0.0, 0) for i in range(3)]
    pairs = mx.match_requests(roots, samples)
    assert [(s.sent, r["id"]) for s, r in pairs] == [(0.0, 0), (1.0, 1), (2.0, 2)]


class Dummy:
    def work(self, x):
        return self.helper(x) + self.helper(x)

    def helper(self, x):
        return x + 1

    @classmethod
    def build(cls):
        return cls()


def test_missing_wrapper_targets_are_reported_not_raised():
    tracer = Tracer()
    install(
        tracer,
        [
            ("perf.no_such_module", "f", "a.b", "span", None),
            (__name__, "Dummy.no_such_method", "a.b", "span", None),
            (__name__, "NoSuchClass.method", "a.b", "count", None),
        ],
    )
    assert tracer.missing == [
        "perf.no_such_module.f",
        f"{__name__}.Dummy.no_such_method",
        f"{__name__}.NoSuchClass.method",
    ]
    assert tracer.export() == []


def test_wrappers_record_spans_counts_and_parents(monkeypatch):
    for name in ("work", "helper", "build"):
        monkeypatch.setattr(Dummy, name, Dummy.__dict__[name])  # restored afterwards
    tracer = Tracer()
    install(
        tracer,
        [
            (__name__, "Dummy.work", "layer.work", "root", lambda result, args: {"result": result}),
            (__name__, "Dummy.helper", "layer.helper", "count", None),
            (__name__, "Dummy.build", "layer.build", "span", None),
        ],
    )
    assert tracer.missing == []
    thing = Dummy.build()  # a classmethod stays one; outside a request: no span
    assert isinstance(thing, Dummy) and tracer.export() == []
    assert thing.helper(1) == 2 and tracer.export() == []
    assert thing.work(1) == 4
    root, counted = tracer.export()
    assert root["name"] == "layer.work" and root["parent"] == -1
    assert root["attrs"] == {"result": 4} and root["request"] == root["id"]
    assert counted["name"] == "layer.helper" and counted["parent"] == root["id"]
    assert counted["attrs"] == {"count": 2}
    assert sp.duration(counted) <= sp.duration(root)


def test_top_k_answers_are_checked():
    good = {"entries": [{"estimate": 0.5 - i * 0.01} for i in range(10)]}
    assert check_top_k(good) is None
    assert "want 10" in check_top_k({"entries": good["entries"][:9]})
    unsorted = {"entries": list(reversed(good["entries"]))}
    assert "sorted" in check_top_k(unsorted)
    bad = {"entries": [{"estimate": 1.5}] + good["entries"][1:]}
    assert "out of [0, 1]" in check_top_k(bad)
