"""Output checks of the benchmark's workloads.

Every check is a pure function that returns a list of problems (empty
when the output is right), so ``selfcheck.py`` can feed each one a
corrupted input and see it fail. The paper checks recompute the claims
from the dumped rows rather than trusting the dumped summary metrics;
the API checks compare every answer with a rule applied to a predictor
the client trained itself.
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable, Iterable

#: A predicted degradation returned by ``predict`` must equal the
#: client's ``SMiTe.predict_server`` within this.
PREDICT_TOLERANCE = 1e-9

#: fig9's functional-unit Rulers must keep their pressure on one port.
MIN_FU_PURITY = 0.9999


# -- paper pipeline ----------------------------------------------------


def check_experiment_set(dump: dict[str, Any], ids: list[str],
                         label: str) -> list[str]:
    """Every listed experiment has a result in the pass's dump."""
    missing = [i for i in ids if i not in dump]
    extra = [i for i in dump if i not in ids]
    problems = []
    if missing:
        problems.append(f"{label}: no result for {', '.join(missing)}")
    if extra:
        problems.append(f"{label}: unlisted results {', '.join(extra)}")
    return problems


def check_dumps_identical(cold: bytes, warm: bytes) -> list[str]:
    """A warm solve cache must not change a single reported number."""
    if cold == warm:
        return []
    a, b = json.loads(cold), json.loads(warm)
    differing = sorted(k for k in set(a) | set(b)
                       if json.dumps(a.get(k)) != json.dumps(b.get(k)))
    return [f"cold and warm dumps differ in {', '.join(differing) or 'layout'}"]


def _rows(dump: dict[str, Any], experiment: str) -> list[dict[str, Any]]:
    result = dump[experiment]
    headers = result["headers"]
    return [dict(zip(headers, row)) for row in result["rows"]]


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values)


def _check_fig9(dump) -> list[str]:
    purities = [row["value"] for row in _rows(dump, "fig9")
                if row["criterion"] == "port purity"]
    if not purities:
        return ["fig9: no port-purity rows"]
    worst = min(purities)
    if worst < MIN_FU_PURITY:
        return [f"fig9: FU purity {worst:.6f} < {MIN_FU_PURITY}"]
    return []


def _check_mean_errors(dump, experiment: str) -> list[str]:
    rows = [row for row in _rows(dump, experiment)
            if row["benchmark"] != "AVERAGE"]
    if not rows:
        return [f"{experiment}: no benchmark rows"]
    smite = _mean(row["SMiTe prediction error"] for row in rows)
    pmu = _mean(row["PMU prediction error"] for row in rows)
    problems = []
    if not smite < pmu:
        problems.append(f"{experiment}: SMiTe mean error {smite:.4f} is "
                        f"not below PMU's {pmu:.4f}")
    reported = dump[experiment]["metrics"].get("smite_mean_error")
    if reported is None or not math.isclose(reported, smite, rel_tol=1e-9):
        problems.append(f"{experiment}: reported SMiTe mean error "
                        f"{reported} != recomputed {smite}")
    return problems


def _check_fig12(dump) -> list[str]:
    rows = _rows(dump, "fig12")
    problems = []
    for mode in ("smt", "cmp"):
        picked = [row for row in rows if row["mode"] == mode]
        if not picked:
            problems.append(f"fig12: no {mode} rows")
            continue
        smite = _mean(row["SMiTe error"] for row in picked)
        pmu = _mean(row["PMU error"] for row in picked)
        if not smite < pmu:
            problems.append(f"fig12 {mode}: SMiTe error {smite:.4f} is not "
                            f"below PMU's {pmu:.4f}")
    return problems


def _by_target(rows: list[dict[str, Any]], column: str
               ) -> dict[str, dict[str, float]]:
    table: dict[str, dict[str, float]] = {}
    for row in rows:
        table.setdefault(row["QoS target"], {})[row["policy"]] = row[column]
    return table


def _check_gain(dump, experiment: str) -> list[str]:
    # Rows run from the strictest target to the loosest (95% -> 85%).
    table = _by_target(_rows(dump, experiment), "utilization improvement")
    problems = []
    previous = None
    for target, gains in table.items():
        base, smite, oracle = gains["baseline"], gains["smite"], \
            gains["oracle"]
        if not base <= smite <= oracle:
            problems.append(f"{experiment} {target}: gains not ordered "
                            f"baseline {base} <= SMiTe {smite} <= "
                            f"Oracle {oracle}")
        if previous is not None and not smite > previous:
            problems.append(f"{experiment} {target}: SMiTe gain {smite} "
                            f"does not rise as the target loosens")
        previous = smite
    if not table:
        problems.append(f"{experiment}: no rows")
    return problems


def _check_violations(dump, experiment: str) -> list[str]:
    table = _by_target(_rows(dump, experiment), "violation rate")
    problems = [f"{experiment} {target}: SMiTe violation rate "
                f"{rates['smite']} > Random's {rates['random']}"
                for target, rates in table.items()
                if rates["smite"] > rates["random"]]
    if not table:
        problems.append(f"{experiment}: no rows")
    return problems


def _check_fig18(dump) -> list[str]:
    rows = _rows(dump, "fig18")
    problems = [f"fig18 {row['QoS metric']} {row['QoS target']}: saving "
                f"{row['TCO saving']} is not above 0"
                for row in rows if not row["TCO saving"] > 0]
    saving: dict[str, dict[str, float]] = {}
    for row in rows:
        saving.setdefault(row["QoS target"], {})[row["QoS metric"]] = \
            row["TCO saving"]
    for target, by_metric in saving.items():
        if by_metric.get("tail", 0.0) > by_metric.get("average", 0.0):
            problems.append(f"fig18 {target}: tail saving exceeds average")
    if not rows:
        problems.append("fig18: no rows")
    return problems


def _check_adaptive(dump) -> list[str]:
    rows = {row["policy"]: row for row in _rows(dump, "figs_adaptive")}
    static, adaptive = rows.get("static"), rows.get("adaptive")
    if static is None or adaptive is None:
        return ["figs_adaptive: static or adaptive row missing"]
    problems = []
    key = "violated server-windows"
    if not adaptive[key] < static[key]:
        problems.append(f"figs_adaptive: adaptive violations "
                        f"{adaptive[key]} not below static {static[key]}")
    gain = "mean utilization gain"
    if not adaptive[gain] >= static[gain]:
        problems.append(f"figs_adaptive: adaptive gain {adaptive[gain]} "
                        f"below static {static[gain]}")
    return problems


def check_paper_claims(dump: dict[str, Any]) -> list[str]:
    """The paper's qualitative results, recomputed from the rows."""
    checks: list[tuple[str, Callable[[], list[str]]]] = [
        ("fig9", lambda: _check_fig9(dump)),
        ("fig10", lambda: _check_mean_errors(dump, "fig10")),
        ("fig11", lambda: _check_mean_errors(dump, "fig11")),
        ("fig12", lambda: _check_fig12(dump)),
        ("fig14", lambda: _check_gain(dump, "fig14")),
        ("fig16", lambda: _check_gain(dump, "fig16")),
        ("fig15", lambda: _check_violations(dump, "fig15")),
        ("fig17", lambda: _check_violations(dump, "fig17")),
        ("fig18", lambda: _check_fig18(dump)),
        ("figs_adaptive", lambda: _check_adaptive(dump)),
    ]
    problems: list[str] = []
    for experiment, check in checks:
        if experiment not in dump:
            problems.append(f"{experiment}: missing from the dump")
            continue
        try:
            problems.extend(check())
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            problems.append(f"{experiment}: unreadable rows "
                            f"({type(exc).__name__}: {exc})")
    return problems


# -- prediction API ----------------------------------------------------


def check_books(sent: int, answered: int, server_requests: int | None,
                control_ops: int) -> list[str]:
    """Sent, answered and server-counted requests must balance.

    ``server_requests`` is the server's own ``serve.api.requests``
    counter, which also counts the ``control_ops`` (``stats``,
    ``shutdown``) the client sent outside the measured phases.
    """
    problems = []
    if answered != sent:
        problems.append(f"{sent} requests sent but {answered} answered")
    if server_requests is None:
        problems.append("the server wrote no request count")
    elif server_requests != sent + control_ops:
        problems.append(f"the server counted {server_requests} requests, "
                        f"the client sent {sent} + {control_ops} control")
    return problems


def check_answers(
    requests: list[tuple[str, str, str, int]],
    responses: dict[int, list[dict[str, Any]]],
    safe_count: Callable[[str, str, int], int],
    predicted: Callable[[str, str, int], float],
) -> tuple[list[str], int, int]:
    """Check every answer; returns (problems, admission sheds, queue sheds).

    ``requests[i]`` is ``(op, latency app, batch, count)`` for request
    id ``i``. Each id needs exactly one response. A non-shed ``place``
    answer must equal ``safe_count``; a ``predict`` answer must equal
    ``predicted`` within :data:`PREDICT_TOLERANCE`. A ``place`` the
    admission budget shed (``shed: true``) and a request refused by the
    full queue (``overloaded``) are counted apart, not as failures.
    """
    problems: list[str] = []
    admission_sheds = 0
    queue_sheds = 0
    unanswered = 0
    for request_id, (op, app, batch, count) in enumerate(requests):
        got = responses.get(request_id, [])
        if len(got) != 1:
            if not got:
                unanswered += 1
            else:
                problems.append(f"request {request_id}: {len(got)} responses")
            continue
        response = got[0]
        if not response.get("ok"):
            code = response.get("error", {}).get("code")
            if code == "overloaded":
                queue_sheds += 1
            else:
                problems.append(f"request {request_id}: error {code}")
            continue
        result = response.get("result", {})
        if op == "place":
            if result.get("shed"):
                admission_sheds += 1
                continue
            want = safe_count(app, batch, count)
            if result.get("max_safe_instances") != want:
                problems.append(
                    f"request {request_id}: place {app} x {batch} <= {count} "
                    f"answered {result.get('max_safe_instances')}, the rule "
                    f"gives {want}")
        else:
            want = predicted(app, batch, count)
            value = result.get("predicted_degradation")
            if value is None or abs(value - want) > PREDICT_TOLERANCE:
                problems.append(
                    f"request {request_id}: predict {app} x {batch} x {count} "
                    f"answered {value}, predict_server gives {want}")
    if unanswered:
        problems.append(f"{unanswered} requests got no response")
    extra = sorted(set(responses) - set(range(len(requests))))
    if extra:
        problems.append(f"responses to unknown ids {extra[:5]}")
    return problems, admission_sheds, queue_sheds
