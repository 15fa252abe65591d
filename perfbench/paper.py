"""Workload ``paper_fast``: the paper pipeline, cold and then warm.

Runs ``python -m repro.experiments.runner --all --fast --jobs 1`` twice,
each in a fresh interpreter: first on an empty solve cache, then on the
cache the first pass filled. Set-up is a fresh interpreter running
``runner --list``, the import cost every run pays. The work is fixed:
``--seconds`` does not change it, and the runner's own ``--seed`` stays
at its default, since the paper's numbers are defined at that seed.
"""

from __future__ import annotations

import json
import sys
from typing import Any

import checks
import tracing
from harness import (
    BenchError,
    Deadline,
    RunDir,
    child_env,
    children_peak_rss_mb,
    median,
    python_cmd,
    run_child,
)

RUNNER = "repro.experiments.runner"

#: Fresh-interpreter ``--list`` runs whose median is ``setup_s``.
SETUP_REPEATS = 5

#: Experiments reported on their own; the rest are summed.
NAMED_EXPERIMENTS = ("fig12", "fig14", "fig16")


def _list_ids(run: RunDir, env, deadline: Deadline, repeats: int
              ) -> tuple[list[str], list[float], int]:
    """Run ``--list`` ``repeats`` times; returns ids, wall times, failures."""
    walls, failed, ids = [], 0, []
    for i in range(repeats):
        log = run.sub(f"list-{i}.log")
        status, wall, _cpu = run_child(
            python_cmd(RUNNER, ["--list"]), cwd=run.path, env=env,
            timeout_s=min(30.0, deadline.left()), log=log)
        if status != 0:
            failed += 1
            continue
        walls.append(wall)
        ids = log.read_text(encoding="utf-8").split()
    return ids, walls, failed


def _pass(run: RunDir, env, deadline: Deadline, label: str, trace: bool
          ) -> dict[str, Any]:
    dump = run.sub(f"{label}.json")
    report = run.sub(f"{label}.report.json")
    spans = run.sub(f"{label}.spans.json") if trace else None
    args = ["--all", "--fast", "--jobs", "1",
            "--cache-dir", str(run.sub("cache")),
            "--json", str(dump), "--metrics-out", str(report)]
    log = run.sub(f"{label}.log")
    status, wall, cpu = run_child(
        python_cmd(RUNNER, args, spans_out=spans), cwd=run.path, env=env,
        timeout_s=deadline.left(), log=log)
    outcome: dict[str, Any] = {"status": status, "wall": wall, "cpu": cpu,
                               "dump": None, "report": None, "spans": None}
    if status != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        print(f"paper_fast {label} pass exited {status}:\n{tail}",
              file=sys.stderr)
        return outcome
    outcome["dump"] = dump.read_bytes()
    outcome["report"] = json.loads(report.read_text(encoding="utf-8"))
    if spans is not None:
        outcome["spans"] = tracing.load(str(spans))
    return outcome


def _layer_metrics(label: str, outcome: dict[str, Any]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, suffixed with its label."""
    spans = outcome["spans"] or []
    report = outcome["report"] or {}
    counters = report.get("metrics", {}).get("counters", {})
    experiments = report.get("experiments", {})

    def seconds(*names: str) -> float:
        return tracing.layer_seconds(spans, spans, *names)

    def ratio(num: str, den: str) -> float:
        total = counters.get(den, 0)
        return counters.get(num, 0) / total if total else 0.0

    top = tracing.top_level(spans)
    covered = sum(s[tracing.END] - s[tracing.START] for s in top)
    lru_total = (counters.get("serve.service.cache_hits", 0)
                 + counters.get("serve.service.cache_misses", 0))
    values = {
        "smt.solver.calls": float(counters.get("smt.solver.solves", 0)),
        "smt.solver.s": seconds("smt.solver"),
        "smt.batch.problems": float(counters.get("smt.batch.problems", 0)),
        "smt.batch.s": seconds("smt.batch"),
        "smt.simulator.prefetch_s": seconds("smt.simulator.prefetch"),
        "smt.simulator.memo_hit_ratio": ratio("smt.simulator.memo_hits",
                                              "smt.simulator.requests"),
        "smt.diskcache.get_s": seconds("smt.diskcache.get"),
        "smt.diskcache.put_s": seconds("smt.diskcache.put"),
        "smt.diskcache.hit_ratio": ratio("smt.diskcache.hits",
                                         "smt.diskcache.requests"),
        "core.characterize_s": seconds("core.characterize"),
        "core.predictor.fit_s": seconds("core.predictor.fit"),
        "core.predictor.fit_server_s": seconds("core.predictor.fit_server"),
        "core.trainer.pair_dataset_s": seconds("core.trainer.pair_dataset"),
        "core.trainer.server_dataset_s":
            seconds("core.trainer.server_dataset"),
        "scheduler.cluster.apply_policy_s":
            seconds("scheduler.cluster.apply_policy"),
        "scheduler.fit_tail_model_s": seconds("scheduler.fit_tail_model"),
        "serve.traffic.trace_s": seconds("serve.traffic.trace"),
        "serve.service.decide_s": seconds("serve.service.decide"),
        "serve.service.lru_hit_ratio":
            (counters.get("serve.service.cache_hits", 0) / lru_total
             if lru_total else 0.0),
        "serve.engine.place_s": seconds("serve.engine.place"),
        "serve.slo.s": seconds("serve.slo"),
        "obs.audit.s": seconds("obs.audit"),
        "adapt.observe_s": seconds("adapt.observe"),
        "adapt.end_epoch_s": seconds("adapt.end_epoch"),
        "adapt.swaps": float(counters.get("serve.adapt.swaps", 0)),
        "serve.events": float(counters.get("serve.engine.events", 0)),
        "unattributed_s": outcome["wall"] - covered,
        "traced_wall_s": outcome["wall"],
    }
    for name in NAMED_EXPERIMENTS:
        values[f"experiments.{name}_s"] = float(experiments.get(name, 0.0))
    values["experiments.rest_s"] = float(sum(
        t for name, t in experiments.items()
        if name not in NAMED_EXPERIMENTS))
    return {f"{name}.{label}": value for name, value in values.items()}


def run(seed: int, seconds: int, trace: bool, deadline: Deadline
        ) -> dict[str, Any]:
    """One run of the workload; returns the result object to print."""
    del seed, seconds  # fixed work; see the module docstring
    env = child_env()
    with RunDir() as run_dir:
        ids, list_walls, list_failed = _list_ids(
            run_dir, env, deadline, 1 if trace else SETUP_REPEATS)
        if not ids:
            raise BenchError("runner --list printed no experiment ids")
        cold = _pass(run_dir, env, deadline, "cold", trace)
        warm = _pass(run_dir, env, deadline, "warm", trace)
        peak_rss = children_peak_rss_mb()

    problems: list[str] = []
    failed = list_failed
    for label, outcome in (("cold", cold), ("warm", warm)):
        if outcome["dump"] is None:
            failed += len(ids)
            problems.append(f"{label} pass exited {outcome['status']}")
            continue
        dump = json.loads(outcome["dump"])
        missing = checks.check_experiment_set(dump, ids, label)
        failed += sum(1 for i in ids if i not in dump)
        problems += missing
        problems += [f"{label}: {p}" for p in checks.check_paper_claims(dump)]
    if cold["dump"] is not None and warm["dump"] is not None:
        problems += checks.check_dumps_identical(cold["dump"], warm["dump"])
    attempted = 2 * len(ids) + len(list_walls) + list_failed

    if trace:
        metrics = {}
        for label, outcome in (("cold", cold), ("warm", warm)):
            metrics.update(_layer_metrics(label, outcome))
            if outcome["spans"]:
                print(tracing.render_self_times(
                    f"paper_fast {label} pass, traced wall "
                    f"{outcome['wall']:.2f} s", outcome["spans"]),
                    file=sys.stderr)
        return {"problems": problems, "attempted": attempted,
                "failed": failed, "metrics": metrics}

    n_experiments = max(2 * len(ids), 1)
    metrics = {
        "setup_s": median(list_walls),
        "cold_s": cold["wall"],
        "warm_s": warm["wall"],
        "cpu_us_per_req": (cold["cpu"] + warm["cpu"]) * 1e6 / n_experiments,
        "peak_rss_mb": peak_rss,
    }
    return {"problems": problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}
