"""The tracer: per-thread span stacks, self times, and pass-through results."""
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from time import perf_counter

import pytest

import tracer as tracing
import workloads
from reinit_lab import harness


def test_spans_nest_per_thread_under_switch_pressure():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("leaf", lambda: sum(range(50)))

    def cell():
        for _ in range(200):
            leaf()

    cell = tracer.wrap("cell", cell)

    def root():
        with ThreadPoolExecutor(max_workers=6) as pool:
            for fut in [pool.submit(cell) for _ in range(12)]:
                fut.result(timeout=60)

    root = tracer.wrap("root", root)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        t0 = perf_counter()
        root()
        wall = perf_counter() - t0
    finally:
        sys.setswitchinterval(old)

    spans = {s.id: s for s in tracer.spans}
    assert len(spans) == 1 + 12 + 12 * 200
    (top,) = [s for s in spans.values() if s.parent is None]
    for s in spans.values():
        if s.name == "cell":
            assert s.parent == top.id and s.thread != top.thread
        if s.name == "leaf":
            parent = spans[s.parent]
            assert parent.name == "cell" and parent.thread == s.thread
            assert parent.start <= s.start and s.end <= parent.end
    own = tracing.self_times(list(spans.values()))
    cells = [s for s in spans.values() if s.name == "cell"]
    for c in cells:
        leaves = sum(s.duration for s in spans.values() if s.parent == c.id)
        assert own[c.id] == pytest.approx(c.duration - leaves)
    assert own[top.id] == pytest.approx(top.duration)
    assert tracing.call_metrics(list(spans.values()), wall)["trace.accounted_share"] <= 1.0


def test_traced_run_writes_the_same_files_and_restores_harness(tmp_path):
    w = workloads.WORKLOADS["desk_sp"]
    cfg = replace(w.config(3, tmp_path), epochs=10)
    bundle = harness.prepare_data(cfg)
    plain = w.outcomes(w.call(cfg, bundle, tmp_path / "plain"), tmp_path / "plain")
    hooked = {attr.split(".")[0] for attr in tracing.HOOKS}
    originals = {attr: getattr(harness, attr) for attr in hooked}
    tracer = tracing.Tracer()
    with tracer.installed():
        assert harness.OptimState is not originals["OptimState"]
        t0 = perf_counter()
        result = w.call(cfg, bundle, tmp_path / "traced")
        wall = perf_counter() - t0
    assert {attr: getattr(harness, attr) for attr in hooked} == originals
    traced = w.outcomes(result, tmp_path / "traced")
    digests = ("metrics_sha256", "ckpt_sha256")
    assert [[r[d] for d in digests] for r in traced] == [[r[d] for d in digests] for r in plain]

    layers = tracing.call_metrics(tracer.spans, wall)
    assert layers["harness.optimizer_steps"] == layers["nn.loss_grad.calls"] == 10 * 33
    assert layers["reinit.apply.calls"] == 5 - 1
    assert layers["data.augment.calls"] == layers["distill.rows.calls"] == 0
    for name in ("nn.init.ms", "nn.norms.ms", "optim.lr_at.ms", "optim.fresh.ms", "reinit.plan.ms"):
        assert layers[name] > 0, name
    assert 0.99 <= layers["trace.accounted_share"] <= 1.0
