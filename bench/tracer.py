"""Outside-in tracing of reinit_lab, for the benchmark's traced runs only.

The tracer replaces the functions ``reinit_lab.harness`` calls into the other
modules with timing wrappers, so each call becomes a span. Nothing under
``src/`` changes, and untraced runs never import this module. Each thread
keeps its own span stack, so runs on pool threads (as ``grid_search`` makes
them) nest their spans correctly; spans stay in memory until the run writes them out once.
"""
from __future__ import annotations

import functools
import itertools
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple

from reinit_lab import harness

# harness attribute -> span name (the layer is the part before the first dot).
# "OptimState.fresh" is a static method; its class is swapped for a subclass.
HOOKS = {
    "run_experiment": "harness.run_experiment",
    "evaluate_accuracy": "harness.evaluate",
    "prepare_data": "data.prepare",
    "augment_batch": "data.augment",
    "forward": "nn.forward",
    "loss_grad_logits": "nn.loss_grad",
    "init_params": "nn.init",
    "weight_norm": "nn.norms",
    "block_norms": "nn.norms",
    "sgd_step": "optim.sgd_step",
    "lr_at": "optim.lr_at",
    "OptimState.fresh": "optim.fresh",
    "apply_reinit": "reinit.apply",
    "make_stage_plan": "reinit.plan",
    "stage_seed": "reinit.plan",
    "distill_rows": "distill.rows",
    "snapshot_teacher": "distill.snapshot",
    "save_teacher_cache": "runio.write",
    "emit_metrics": "runio.write",
    "write_summary_csv": "runio.write",
    "save_checkpoint": "runio.write",
}


class Span(NamedTuple):
    """One call through a hook. A tuple, so the garbage collector stops
    scanning the spans a long traced run keeps in memory."""

    id: int
    parent: int | None
    thread: int
    name: str
    start: float
    end: float
    counters: dict | None = None  # a finished run's counters, on run_experiment spans

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # the open span of the first thread to open one; spans opened on
        # other threads with nothing open (pool workers) take it as parent
        self._root: int | None = None

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            sid = next(self._ids)
            parent = stack[-1] if stack else self._root
            if parent is None:
                self._root = sid
            stack.append(sid)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if self._root == sid:
                    self._root = None
                counters = getattr(result, "counters", None) if name == "harness.run_experiment" else None
                self.spans.append(Span(sid, parent, threading.get_ident(), name, start, end, counters))

        return traced

    @contextmanager
    def installed(self):
        """Swap the hooked harness attributes for wrappers; restore them on exit."""
        originals = {attr.split(".")[0]: getattr(harness, attr.split(".")[0]) for attr in HOOKS}
        try:
            for attr, name in HOOKS.items():
                if "." in attr:
                    cls, method = attr.split(".")
                    wrapped = staticmethod(self.wrap(name, getattr(originals[cls], method)))
                    setattr(harness, cls, type(cls, (originals[cls],), {method: wrapped}))
                else:
                    setattr(harness, attr, self.wrap(name, originals[attr]))
            yield self
        finally:
            for attr, fn in originals.items():
                setattr(harness, attr, fn)

    def between(self, start: float, end: float) -> list[Span]:
        return [s for s in self.spans if s.start >= start and s.end <= end]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus that of its children on the same thread.

    Children on another thread (pool workers under the call that started
    them) run concurrently with their parent, so they are not subtracted.
    """
    by_id = {s.id: s for s in spans}
    own = {s.id: s.duration for s in spans}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            own[parent.id] -= s.duration
    return own


def call_metrics(spans: list[Span], wall_s: float) -> dict:
    """Per-layer figures for one timed library call that took ``wall_s``."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_ms: dict[str, float] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + s.duration * 1e3
        self_ms[s.name] = self_ms.get(s.name, 0.0) + own[s.id] * 1e3

    def per_call_us(name):
        return total.get(name, 0.0) * 1e3 / calls[name] if calls.get(name) else 0.0

    runs = [s for s in spans if s.name == "harness.run_experiment"]
    root = next(s for s in spans if s.parent is None)
    main = [s for s in spans if s.thread == root.thread]
    return {
        "harness.self_ms": self_ms.get("harness.run_experiment", 0.0) + self_ms.get("harness.evaluate", 0.0),
        "harness.evaluate_ms": total.get("harness.evaluate", 0.0),
        "harness.optimizer_steps": sum(s.counters["optimizer_steps"] for s in runs if s.counters),
        "nn.loss_grad.calls": calls.get("nn.loss_grad", 0),
        "nn.loss_grad.us_per_call": per_call_us("nn.loss_grad"),
        "nn.loss_grad.ms": total.get("nn.loss_grad", 0.0),
        "nn.forward.ms": total.get("nn.forward", 0.0),
        "nn.init.ms": total.get("nn.init", 0.0),
        "nn.norms.ms": total.get("nn.norms", 0.0),
        "optim.sgd_step.calls": calls.get("optim.sgd_step", 0),
        "optim.sgd_step.us_per_call": per_call_us("optim.sgd_step"),
        "optim.sgd_step.ms": total.get("optim.sgd_step", 0.0),
        "optim.lr_at.ms": total.get("optim.lr_at", 0.0),
        "optim.fresh.ms": total.get("optim.fresh", 0.0),
        "data.augment.calls": calls.get("data.augment", 0),
        "data.augment.us_per_call": per_call_us("data.augment"),
        "data.augment.ms": total.get("data.augment", 0.0),
        "distill.snapshot.calls": calls.get("distill.snapshot", 0),
        "distill.snapshot.ms": total.get("distill.snapshot", 0.0),
        "distill.rows.calls": calls.get("distill.rows", 0),
        "distill.rows.us_per_call": per_call_us("distill.rows"),
        "distill.teacher_reads": sum(s.counters["teacher_reads"] for s in runs if s.counters),
        "reinit.apply.calls": calls.get("reinit.apply", 0),
        "reinit.apply.ms": total.get("reinit.apply", 0.0),
        "reinit.plan.ms": total.get("reinit.plan", 0.0),
        "runio.write.ms": total.get("runio.write", 0.0),
        # self-test: the calling thread's self times must add up to the call's
        # wall time, or some span escaped its parent or was counted twice
        "trace.accounted_share": sum(own[s.id] for s in main) / wall_s,
    }


def span_rows(spans: list[Span]) -> list[list]:
    """Spans as compact JSON rows: id, parent, thread, name, start, end."""
    return [[s.id, s.parent, s.thread, s.name, s.start, s.end] for s in spans]
