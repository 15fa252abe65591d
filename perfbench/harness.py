"""Process, file and statistics helpers shared by the workloads.

Every run is hermetic: it works in its own directory under
``.perfbench_runs/`` in the checkout (ignored by git, removed when the
run ends), each solve cache it uses starts empty inside that directory,
and every child process gets the caller's environment with all
``SMITE_*`` variables removed except the ones set here.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
RUNS_DIR = ROOT / ".perfbench_runs"
TRACED_MAIN = BENCH_DIR / "traced_main.py"


class BenchError(RuntimeError):
    """The benchmark could not run; no result line is printed."""


class RunDir:
    """A scratch directory inside the checkout, removed on exit."""

    def __init__(self) -> None:
        self.path = RUNS_DIR / f"run-{os.getpid()}-{time.time_ns()}"

    def __enter__(self) -> "RunDir":
        self.path.mkdir(parents=True)
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            RUNS_DIR.rmdir()  # only when no other run is using it
        except OSError:
            pass

    def sub(self, name: str) -> Path:
        return self.path / name


def child_env(**settings: str) -> dict[str, str]:
    """The caller's environment minus ``SMITE_*``, plus ``settings``."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("SMITE_")}
    env["PYTHONPATH"] = str(SRC)
    env.update(settings)
    return env


def python_cmd(module: str, args: list[str], *,
               spans_out: Path | None = None) -> list[str]:
    """``python -m module args``, or the traced bootstrap when tracing."""
    if spans_out is None:
        return [sys.executable, "-m", module, *args]
    return [sys.executable, str(TRACED_MAIN), str(spans_out), module, *args]


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def children_peak_rss_mb() -> float:
    """Peak resident set of the largest child waited for so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def run_child(cmd: list[str], *, cwd: Path, env: dict[str, str],
              timeout_s: float, log: Path) -> tuple[int, float, float]:
    """Run one child to completion; returns (status, wall s, CPU s).

    The child's output goes to ``log``. A child still running after
    ``timeout_s`` is killed and reported with status -9.
    """
    cpu_before = children_cpu_s()
    with open(log, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out,
                                stderr=subprocess.STDOUT)
        try:
            status = proc.wait(timeout=max(timeout_s, 1.0))
        except subprocess.TimeoutExpired:
            status = -9
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - started
    return status, wall, children_cpu_s() - cpu_before


class Deadline:
    """The run's overall time limit, shared by every step."""

    def __init__(self, seconds: float) -> None:
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        left = self.end - time.perf_counter()
        if left <= 0:
            raise BenchError("the run's time limit was reached")
        return left


# -- statistics --------------------------------------------------------


def median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise BenchError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


#: Percentiles tried, highest first, for the reported tail.
_TAIL_LADDER = (99.99, 99.95, 99.9, 99.5, 99.0, 95.0, 90.0)


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest ladder percentile with at least ten samples beyond it.

    Returns ``(q, value)``, or None for fewer than forty samples, where
    no percentile above the median is a tail worth the name.
    """
    n = len(values)
    if n < 40:
        return None
    for q in _TAIL_LADDER:
        if n - math.ceil(q / 100.0 * n) >= 10:
            return q, percentile(values, q)
    return None
