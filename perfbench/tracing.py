"""Layer timers for the traced benchmark runs.

:func:`install` wraps the public functions of each ``repro`` layer in a
timer. Every call becomes a span: a name, a wall-clock start and end
(``time.perf_counter``, which on Linux reads the system-wide monotonic
clock, so spans from the API server line up with the client's phase
marks), the calling thread's CPU time at both ends, and the span that
was open on the same thread when it started. Spans stay in memory and
are written out once, when the traced process ends.

A function is wrapped at every name a caller can look it up by: the
defining module, every already-imported ``repro`` module that bound it
with ``from ... import``, and the class for methods. Modules imported
later pick up the wrapper from the defining module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from typing import Any, Callable

#: (span name, module, qualified name) of every wrapped function. The
#: span name is the layer metric's stem; several functions can share
#: one (for example the three ``WindowedSlo`` entry points).
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("smt.solver", "repro.smt.solver", "solve"),
    ("smt.batch", "repro.smt.batch", "solve_many"),
    ("smt.simulator.prefetch", "repro.smt.simulator", "Simulator.prefetch"),
    ("smt.diskcache.get", "repro.smt.diskcache", "PersistentSolveCache.get"),
    ("smt.diskcache.put", "repro.smt.diskcache", "PersistentSolveCache.put"),
    ("core.characterize", "repro.core.characterize", "characterize_many"),
    ("core.predictor.fit", "repro.core.predictor", "SMiTe.fit"),
    ("core.predictor.fit_server", "repro.core.predictor",
     "SMiTe.fit_server"),
    ("core.trainer.pair_dataset", "repro.core.trainer",
     "build_pair_dataset"),
    ("core.trainer.server_dataset", "repro.core.trainer",
     "build_server_dataset"),
    ("scheduler.cluster.apply_policy", "repro.scheduler.cluster",
     "Cluster.apply_policy"),
    ("scheduler.fit_tail_model", "repro.scheduler.scaleout",
     "fit_tail_model"),
    ("serve.traffic.trace", "repro.serve.traffic", "poisson_trace"),
    ("serve.traffic.trace", "repro.serve.traffic", "diurnal_trace"),
    ("serve.traffic.trace", "repro.serve.traffic", "phase_shift_trace"),
    ("serve.service.decide", "repro.serve.service",
     "PredictionService.decide_stream"),
    ("serve.service.decide", "repro.serve.service",
     "PredictionService.begin_epoch_batch"),
    ("serve.service.decide", "repro.serve.service",
     "PredictionService.decide_batch"),
    ("serve.engine.place", "repro.serve.shard", "replay_pool_events"),
    ("serve.engine.place", "repro.serve.shard", "PoolKernel.step"),
    ("serve.slo", "repro.serve.slo", "WindowedSlo.observe"),
    ("serve.slo", "repro.serve.slo", "WindowedSlo.observe_groups"),
    ("serve.slo", "repro.serve.slo", "WindowedSlo.finish"),
    ("obs.audit", "repro.obs.audit", "PredictionAudit.record"),
    ("obs.audit", "repro.obs.audit", "PredictionAudit.close_window"),
    ("adapt.observe", "repro.adapt.decider", "AdaptationController.observe"),
    ("adapt.end_epoch", "repro.adapt.decider",
     "AdaptationController.end_epoch"),
    ("api.protocol", "repro.serve.api.protocol", "decode_payload"),
    ("api.protocol", "repro.serve.api.protocol", "encode_frame"),
    ("api.protocol", "repro.serve.api.protocol", "validate_request"),
    ("api.service.begin_epoch", "repro.serve.service",
     "PredictionService.begin_epoch"),
    ("api.service.decide", "repro.serve.service", "PredictionService.decide"),
    ("api.service.decide", "repro.serve.service",
     "PredictionService.predicted_degradation"),
)

# Span record fields, in order.
NAME, START, END, CPU_START, CPU_END, PARENT = range(6)


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._local = threading.local()

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        local = self._local
        clock = time.perf_counter
        cpu = time.thread_time

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            record = [name, clock(), 0.0, cpu(), 0.0,
                      stack[-1] if stack else None]
            spans.append(record)
            stack.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[CPU_END] = cpu()
                record[END] = clock()

        return timed

    def dump(self, path: str) -> None:
        """Write the spans as JSON rows with the parent as a row index."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        rows = [
            [r[NAME], r[START], r[END], r[CPU_START], r[CPU_END],
             -1 if r[PARENT] is None else index[id(r[PARENT])]]
            for r in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


def _resolve(module_name: str, qualname: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def install(recorder: Recorder) -> None:
    """Wrap every function in :data:`TARGETS`; see the module docstring."""
    for name, module_name, qualname in TARGETS:
        owner, attr = _resolve(module_name, qualname)
        raw = inspect.getattr_static(owner, attr)
        if isinstance(owner, type):
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(recorder.wrap(name, raw.__func__))
            else:
                wrapped = recorder.wrap(name, raw)
            setattr(owner, attr, wrapped)
            continue
        wrapped = recorder.wrap(name, raw)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, key, wrapped)


# -- reading spans back ------------------------------------------------


def load(path: str) -> list[list[Any]]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def in_window(spans: list[list[Any]], lo: float, hi: float
              ) -> list[list[Any]]:
    """Spans that started inside ``[lo, hi)``."""
    return [s for s in spans if lo <= s[START] < hi]


def _outermost(spans: list[list[Any]], names: set[str],
               all_spans: list[list[Any]]) -> list[list[Any]]:
    """Spans named in ``names`` with no ancestor also named in it."""
    picked = []
    for span in spans:
        if span[NAME] not in names:
            continue
        parent = span[PARENT]
        while parent >= 0 and all_spans[parent][NAME] not in names:
            parent = all_spans[parent][PARENT]
        if parent < 0:
            picked.append(span)
    return picked


def layer_seconds(spans: list[list[Any]], all_spans: list[list[Any]],
                  *names: str) -> float:
    """Wall time inside the named layer, nested calls counted once."""
    return sum(s[END] - s[START]
               for s in _outermost(spans, set(names), all_spans))


def top_level(spans: list[list[Any]]) -> list[list[Any]]:
    return [s for s in spans if s[PARENT] < 0]


def self_times(spans: list[list[Any]]) -> dict[str, tuple[int, float, float]]:
    """Per span name: (calls, inclusive s, self s).

    Self time is a span's duration minus the time its direct children
    cover; children run on the parent's thread, inside its interval, so
    their durations never overlap one another.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    table: dict[str, tuple[int, float, float]] = {}
    for i, span in enumerate(spans):
        calls, inclusive, own = table.get(span[NAME], (0, 0.0, 0.0))
        duration = span[END] - span[START]
        table[span[NAME]] = (calls + 1, inclusive + duration,
                             own + duration - child_time[i])
    return table


def render_self_times(title: str, spans: list[list[Any]]) -> str:
    """A small text table of the span tree, heaviest self time first."""
    table = self_times(spans)
    lines = [f"{title}: {len(spans)} spans",
             f"  {'span':34} {'calls':>8} {'incl s':>9} {'self s':>9}"]
    for name, (calls, inclusive, own) in sorted(
            table.items(), key=lambda item: -item[1][2]):
        lines.append(f"  {name:34} {calls:8d} {inclusive:9.3f} {own:9.3f}")
    return "\n".join(lines)
