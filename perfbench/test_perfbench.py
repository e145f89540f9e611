"""Tests of the benchmark itself: tracer coverage, checks, inputs, cleanup.

    python3 -m pytest perfbench -q

The df-exact case starts a local Spark session and takes about a minute.
"""
from __future__ import annotations

import dataclasses
import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from speed import REF_GAUGE_S, SpeedGauge, rescale  # noqa: E402
from tracer import Probe, Span, Tracer, _resolve, self_times  # noqa: E402

# the layer metrics that must be non-zero where the layer matters
MATTERS = {
    "exact-hubs": [
        "flow.maxflow.calls", "flow.mincut.self_s", "flow.build.calls",
        "flow.build.nodes_max", "ratios.pick.calls", "exact.dinkelbach.calls",
        "exact.cuts", "exact.improving_cut_frac", "approx.core_probes",
    ],
    "exact-planted": [
        "xycore.local.calls", "xycore.local.edges_in", "ratios.pick.calls",
        "flow.maxflow.calls", "exact.dinkelbach.calls", "exact.ratios_solved",
    ],
    "approx-peel": [
        "xycore.local.calls", "approx.core_probes", "approx.x_evaluated",
        "approx.bs.self_s", "approx.bs.peel_rounds",
    ],
    "df-exact": [
        "xycore.df.calls", "xycore.df_aux.calls", "graph.collect.calls",
        "graph.collect.rows", "exact.dinkelbach.calls",
    ],
}


@pytest.fixture
def work_tmp() -> Path:
    """Temporary space inside the checkout, where the benchmark itself writes."""
    path = ROOT / run.WORK_DIR / "tmp"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _originals() -> dict:
    out = {}
    for p in layers.PROBES:
        owner, attr = _resolve(p.target)
        out[p.target] = vars(owner)[attr]
    return out


def _traced_solve(w, inp, ref):
    tracer = Tracer(layers.PROBES)
    with tracer, tracer.root("solve") as span:
        results = wl.solve(w, inp)
        span.counts.update(layers.result_counts(results))
    assert wl.check(w, ref, results) == []
    (m,) = layers.per_solve(tracer.spans)
    return m


@pytest.mark.parametrize("name", ["exact-hubs", "exact-planted", "approx-peel"])
def test_layers_record_work_where_they_matter(name):
    w = wl.WORKLOADS[name]
    graph = wl.make_graph(w, 1)
    before = _originals()
    m = _traced_solve(w, graph, wl.reference(w, graph))
    for key in MATTERS[name]:
        assert m[key] > 0, key
    assert m["xycore.df.calls"] == 0
    assert 0.95 < m["trace.covered_frac"] <= 1.0
    assert _originals() == before


def test_df_layers_record_work(work_tmp):
    w = wl.WORKLOADS["df-exact"]
    graph = wl.make_graph(w, 1)
    ref = wl.reference(w, graph)
    from repro.graph.generators import to_spark

    with run.SparkRuntime(work_tmp) as spark:
        m = _traced_solve(w, to_spark(spark.session, graph).cache(), ref)
    for key in MATTERS["df-exact"]:
        assert m[key] > 0, key
    assert m["xycore.df.self_s"] > m["flow.maxflow.self_s"]


def test_wrappers_restored_when_solve_raises():
    before = _originals()
    tracer = Tracer(layers.PROBES)
    with pytest.raises(ZeroDivisionError):
        with tracer:
            from repro.core import exact

            assert exact.candidate_in is not before["repro.core.exact:candidate_in"]
            1 / 0
    assert _originals() == before


def test_unknown_probe_target_fails_loudly_and_restores():
    before = _originals()
    with pytest.raises(LookupError):
        with Tracer([*layers.PROBES, Probe("repro.core.exact:no_such_fn", "x")]):
            pass
    assert _originals() == before


def test_tampered_result_fails_the_check():
    w = wl.WORKLOADS["df-exact"]
    graph = wl.make_graph(w, 0)
    ref = wl.reference(w, graph)
    good = wl.solve(w, graph)  # local engine on the same graph
    assert wl.check(w, ref, good) == []
    r = good["core_exact"]
    for bad in [
        dataclasses.replace(r, edges_st=r.edges_st + 1),
        dataclasses.replace(r, edges_st=r.edges_st - 1),
        dataclasses.replace(r, S=r.S[1:]),
        dataclasses.replace(r, T=np.concatenate([r.T, r.T[:1]])),
    ]:
        assert wl.check(w, ref, {"core_exact": bad})


def test_tampered_solves_count_as_failures(monkeypatch, capsys, work_tmp):
    w = wl.WORKLOADS["exact-planted"]
    real = wl.solve(w, wl.make_graph(w, 0))["core_exact"]
    tampered = dataclasses.replace(real, edges_st=real.edges_st + 1)
    monkeypatch.setattr(wl, "solve", lambda w, g: {"core_exact": tampered})
    monkeypatch.setenv("TMPDIR", str(work_tmp))
    code = run.main(["--workload", "exact-planted", "--seed", "0", "--seconds", "0"])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert out["correct"] is False
    assert out["failed"] == out["attempted"] >= 1


def test_setup_in_child_reports_a_cold_setup_time(work_tmp, monkeypatch):
    monkeypatch.setenv("TMPDIR", str(work_tmp))
    assert 0 < run._setup_in_child("exact-hubs", 3) < 60


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    w = wl.WORKLOADS[name]

    def raw(seed):
        g = wl.make_graph(w, seed)
        return g.src.tobytes() + g.dst.tobytes()

    assert raw(7) == raw(7)
    assert raw(7) != raw(8)


def test_recount_matches_brute_force():
    g = wl.make_graph(wl.WORKLOADS["df-exact"], 3)
    rng = np.random.default_rng(0)
    for _ in range(20):
        S = rng.choice(40, 7, replace=False)
        T = rng.choice(40, 9, replace=False)
        want = sum(1 for u, v in zip(g.src, g.dst) if u in set(S) and v in set(T))
        assert wl.recount(g, S, T) == want


def test_rescale_counts_work_at_the_reference_speed():
    assert rescale(2.0, []) == 2.0
    # the gauge's own time is taken out; half speed halves the work
    assert rescale(2.0, [REF_GAUGE_S] * 4) == pytest.approx(2.0 - 4 * REF_GAUGE_S)
    assert rescale(2.0, [2 * REF_GAUGE_S] * 4) == pytest.approx((2.0 - 8 * REF_GAUGE_S) / 2)


def test_speed_gauge_samples_while_entered_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    gauge = SpeedGauge()
    with gauge:
        mark = gauge.start()
        t = time.perf_counter()
        while time.perf_counter() - t < 0.2:
            sum(range(1000))
        wall, ref = gauge.stop(mark)
    assert len(gauge.samples) >= 5
    assert wall >= 0.2 and ref > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_self_time_subtracts_direct_children():
    spans = [
        Span("solve", 0.0, 10.0, None, 1),
        Span("a", 1.0, 3.0, 0, 1),
        Span("b", 4.0, 8.0, 0, 1),
        Span("c", 5.0, 6.0, 2, 1),
    ]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0]


def test_benchmark_json_lists_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRICS
    assert [m["name"] for m in spec["end_to_end"]] == ["solve_s", "setup_s", "peak_rss_mb"]
