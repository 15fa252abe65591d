"""Fast self-test of the benchmark's output checks.

Usage::

    python3 perfbench/selfcheck.py

Feeds every check in ``checks.py`` a correct input, which must pass,
and then corrupted copies (a flipped ``place`` answer, a ``predict``
answer off by more than the tolerance, a missing and a duplicated
response, unbalanced books, cold and warm dumps that differ, a missing
experiment, and each paper claim broken in turn), each of which must
fail. Needs neither the program nor a server; exits 1 on the first
check that does not behave.
"""

from __future__ import annotations

import copy
import json
import sys
from typing import Any, Callable

import checks


def _result(headers: list[str], rows: list[list[Any]],
            metrics: dict[str, float] | None = None) -> dict[str, Any]:
    return {"title": "", "paper_claim": "", "headers": headers,
            "rows": rows, "metrics": metrics or {}}


def good_dump() -> dict[str, Any]:
    """A dump shaped like the runner's whose every claim holds."""
    error_headers = ["benchmark", "measured degradation",
                     "PMU prediction error", "SMiTe prediction error"]
    gain_headers = ["QoS target", "policy", "utilization improvement"]
    violation_headers = ["QoS target", "policy", "violation rate",
                         "worst violation magnitude"]
    gains = []
    for target, smite in (("95%", 0.2), ("90%", 0.4), ("85%", 0.6)):
        gains += [[target, "baseline", 0.0], [target, "smite", smite],
                  [target, "oracle", smite + 0.1]]
    violations = []
    for target in ("95%", "90%", "85%"):
        violations += [[target, "smite", 0.0, 0.0],
                       [target, "random", 0.2, 0.5]]
    return {
        "fig9": _result(["ruler", "criterion", "value"], [
            ["ruler-fp_mul", "port purity", 0.99998],
            ["ruler-l1", "intensity linearity (pearson)", 0.98]]),
        "fig10": _result(error_headers, [
            ["a", 0.3, 0.2, 0.05], ["b", 0.2, 0.1, 0.03],
            ["AVERAGE", float("nan"), 0.15, 0.04]],
            {"smite_mean_error": 0.04}),
        "fig11": _result(error_headers, [
            ["a", 0.3, 0.1, 0.02], ["b", 0.2, 0.1, 0.04],
            ["AVERAGE", float("nan"), 0.1, 0.03]],
            {"smite_mean_error": 0.03}),
        "fig12": _result(
            ["mode", "application", "measured min", "measured mean",
             "measured max", "PMU error", "SMiTe error"],
            [["smt", "web-search", 0.0, 0.1, 0.6, 0.10, 0.06],
             ["cmp", "web-search", 0.0, 0.1, 0.5, 0.15, 0.06]]),
        "fig14": _result(gain_headers, gains),
        "fig16": _result(gain_headers, copy.deepcopy(gains)),
        "fig15": _result(violation_headers, violations),
        "fig17": _result(violation_headers, copy.deepcopy(violations)),
        "fig18": _result(
            ["QoS metric", "QoS target", "utilization improvement",
             "batch servers removed", "TCO saving"],
            [["average", "95%", 0.2, 400, 0.10],
             ["tail", "95%", 0.1, 200, 0.05]]),
        "figs_adaptive": _result(
            ["policy", "arrivals", "colocated", "violated server-windows",
             "mean violation rate", "mean utilization gain"],
            [["static", 282, 116, 33, 0.12, 0.39],
             ["adaptive", 282, 147, 27, 0.10, 0.49]]),
    }


def _set(experiment: str, row: int, column: int, value: Any
         ) -> Callable[[dict], None]:
    def corrupt(dump: dict) -> None:
        dump[experiment]["rows"][row][column] = value
    return corrupt


#: One corruption per paper claim; each must make the claims check fail.
PAPER_CORRUPTIONS: dict[str, Callable[[dict], None]] = {
    "fig9 purity below 0.9999": _set("fig9", 0, 2, 0.9990),
    "fig10 SMiTe above PMU": _set("fig10", 0, 3, 0.5),
    "fig11 reported mean disagrees": _set("fig11", 0, 3, 0.03),
    "fig12 cmp SMiTe above PMU": _set("fig12", 1, 6, 0.2),
    "fig14 SMiTe above Oracle": _set("fig14", 1, 2, 0.95),
    "fig16 gain falls as the target loosens": _set("fig16", 7, 2, 0.1),
    "fig15 SMiTe violates more than Random": _set("fig15", 0, 2, 0.5),
    "fig17 SMiTe violates more than Random": _set("fig17", 2, 2, 0.3),
    "fig18 saving not above 0": _set("fig18", 0, 4, 0.0),
    "fig18 tail saving above average": _set("fig18", 1, 4, 0.2),
    "figs_adaptive no fewer violations": _set("figs_adaptive", 1, 3, 33),
    "figs_adaptive lower gain": _set("figs_adaptive", 1, 5, 0.3),
    "figs_adaptive row missing": lambda d: d["figs_adaptive"]["rows"].pop(),
    "fig12 missing": lambda d: d.pop("fig12"),
}


def _api_case() -> tuple[list, dict, Callable, Callable]:
    requests = [("place", "web-search", "470.lbm", 4),
                ("predict", "web-search", "470.lbm", 2),
                ("place", "data-caching", "429.mcf", 6),
                ("place", "data-caching", "429.mcf", 3)]

    def safe_count(app: str, batch: str, count: int) -> int:
        return min(count, 2)

    def predicted(app: str, batch: str, count: int) -> float:
        return 0.01 * count

    responses = {
        0: [{"ok": True, "result": {"max_safe_instances": 2,
                                    "shed": False}}],
        1: [{"ok": True, "result": {"predicted_degradation": 0.02}}],
        2: [{"ok": True, "result": {"max_safe_instances": 0,
                                    "shed": True}}],
        3: [{"ok": False, "error": {"code": "overloaded"},
             "result": {"max_safe_instances": 0, "shed": True}}],
    }
    return requests, responses, safe_count, predicted


def main() -> int:
    failures: list[str] = []

    def expect(label: str, problems: list[str], should_fail: bool) -> None:
        if bool(problems) != should_fail:
            failures.append(f"{label}: expected "
                            f"{'a failure' if should_fail else 'a pass'}, "
                            f"got {problems or 'no problems'}")

    dump = good_dump()
    expect("correct dump", checks.check_paper_claims(dump), False)
    for label, corrupt in PAPER_CORRUPTIONS.items():
        broken = copy.deepcopy(dump)
        corrupt(broken)
        expect(label, checks.check_paper_claims(broken), True)

    ids = sorted(dump)
    expect("all experiments present",
           checks.check_experiment_set(dump, ids, "cold"), False)
    partial = {k: v for k, v in dump.items() if k != "fig14"}
    expect("a pass missing fig14",
           checks.check_experiment_set(partial, ids, "cold"), True)

    cold = json.dumps(dump).encode()
    expect("identical dumps", checks.check_dumps_identical(cold, cold),
           False)
    drifted = copy.deepcopy(dump)
    drifted["fig10"]["rows"][0][2] += 1e-12
    expect("cold and warm dumps that differ",
           checks.check_dumps_identical(cold, json.dumps(drifted).encode()),
           True)

    requests, responses, safe_count, predicted = _api_case()
    problems, admission, queue = checks.check_answers(
        requests, responses, safe_count, predicted)
    expect("correct answers", problems, False)
    if (admission, queue) != (1, 1):
        failures.append(f"shed counts {(admission, queue)} != (1, 1)")

    def api_broken(change: Callable[[dict], None]) -> list[str]:
        broken = copy.deepcopy(responses)
        change(broken)
        return checks.check_answers(requests, broken, safe_count,
                                    predicted)[0]

    expect("a flipped place answer", api_broken(
        lambda r: r[0][0]["result"].update(max_safe_instances=3)), True)
    expect("a predict answer off by 1e-6", api_broken(
        lambda r: r[1][0]["result"].update(predicted_degradation=0.020001)),
        True)
    expect("a missing response", api_broken(lambda r: r.pop(2)), True)
    expect("a duplicated response", api_broken(
        lambda r: r[0].append(r[0][0])), True)
    expect("an error response", api_broken(
        lambda r: r.update({3: [{"ok": False,
                                 "error": {"code": "internal"}}]})), True)

    expect("balanced books", checks.check_books(4, 4, 7, 3), False)
    expect("fewer answers than requests", checks.check_books(4, 3, 7, 3),
           True)
    expect("unbalanced books at the server", checks.check_books(4, 4, 6, 3),
           True)
    expect("no server count", checks.check_books(4, 4, None, 3), True)

    for failure in failures:
        print(f"FAIL {failure}")
    if failures:
        return 1
    print("selfcheck: every check passed its good input and failed every "
          "corrupted one")
    return 0


if __name__ == "__main__":
    sys.exit(main())
