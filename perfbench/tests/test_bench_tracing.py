import json
from pathlib import Path

import pytest

import subarchmap
from perfbench.tracing import LAYER_METRICS, Tracer
from perfbench.workloads import WORKLOADS
from subarchmap import iso, maximal

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_benchmark_file_lists_the_workloads_and_layer_metrics():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} \
        == {name: (unit, better) for name, (unit, better, _) in LAYER_METRICS.items()}


def test_traced_pipeline_counts_and_self_times():
    g = subarchmap.load_platform("guadalupe")
    tracer = Tracer()
    with tracer:
        ss = maximal.max_subarchitectures(g, 6)
    assert maximal.wl_hash is iso.wl_hash  # wrappers removed on exit

    layers = tracer.layer_metrics()
    _, connected, noniso, members = ss.counts_row()
    assert layers["subgraphs.yielded"] == connected
    assert layers["graphs.induced_subgraph.calls"] == connected
    assert layers["iso.wl_hash.calls"] == connected
    assert layers["iso.wl_buckets"] == noniso
    assert layers["maximal.max_subarchitectures.calls"] == 1
    assert 0 < layers["iso.is_isomorphic.true_ratio"] <= 1
    assert layers["maximal.stage_noniso_s"] == ss.stage_times["noniso"]

    # Self times partition the root span.
    root = [s for s in tracer.spans if s.parent == -1]
    assert len(root) == 1
    self_total = sum(v for k, v in layers.items() if k.endswith("self_s"))
    assert self_total == pytest.approx(root[0].end - root[0].start, rel=1e-6)
    _, ok = tracer.stage_crosscheck()
    assert ok


def test_removed_call_site_is_reported_absent(monkeypatch):
    monkeypatch.delattr(maximal, "wl_hash")
    with Tracer() as tracer:
        assert maximal.induced_subgraph is not subarchmap.induced_subgraph
    assert maximal.induced_subgraph is subarchmap.induced_subgraph
    assert tracer.absent == {"iso.wl_hash"}
    layers = tracer.layer_metrics()
    assert not {"iso.wl_hash.calls", "iso.wl_buckets"} & set(layers)
    assert "iso.is_isomorphic.calls" in layers
