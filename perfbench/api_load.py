"""Workload ``api_open_loop``: the prediction API with the real decider.

The server is the shipped CLI, ``python -m repro.cli serve-api --fast
--port 0``, in its own process on an empty solve cache (under tracing,
the same ``repro.cli.main`` behind ``traced_main.py``). It is only ever
stopped with the ``shutdown`` op; one that does not exit with status 0
within :data:`EXIT_TIMEOUT_S` is killed and counted as a failed
operation.

One client process drives it over one connection from one thread:

1. *set-up and cold*: :data:`LAUNCHES` servers are started one after
   the other, each on an empty solve cache, and each is asked ``place``
   for every key of the working set once, sequentially, in one fixed
   shuffled order (:data:`COLD_ORDER_SEED`). The working set is every
   CloudSuite app x every SPEC profile x 1..6 instances (696 keys),
   larger than the service's 512-entry decision LRU.
2. *open loop*: the last server then gets a seeded Poisson schedule at
   :data:`RATE_PER_S` for ``--seconds`` seconds, about 80% ``place``
   and 20% ``predict`` on uniformly drawn keys. The solver is idle by
   now. Each request is timed from when it was due, and the sender's
   lateness against the schedule is recorded.

Afterwards the client trains its own predictor the way the server
does (first eight odd SPEC profiles, instance counts 1/3/6) from the
solve cache the server filled, and checks every answer against it.
"""

from __future__ import annotations

import json
import os
import select
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

import checks
import tracing
from harness import (
    SRC,
    BenchError,
    Deadline,
    RunDir,
    child_env,
    children_peak_rss_mb,
    median,
    percentile,
    python_cmd,
    tail_percentile,
)

RATE_PER_S = 2_000.0
PLACE_SHARE = 0.8
MAX_INSTANCES = 6
QOS_LEVEL = 0.95
#: Server launches per untraced run, each on its own empty solve cache
#: and each asked for one cold pass; ``setup_s`` and ``cold_s`` are the
#: medians over them. Only the last goes on to the open loop.
LAUNCHES = 2
#: The cold pass's key order decides how the server's prefetches batch
#: its solves, and so its cost: with orders drawn from the seed, the
#: pass took 1.6-3.0 s. One fixed order keeps ``cold_s`` comparable across seeds.
COLD_ORDER_SEED = 0
LISTEN_TIMEOUT_S = 90.0
EXIT_TIMEOUT_S = 30.0
#: How long after the last due time the open loop waits for answers.
OPEN_LOOP_DRAIN_S = 60.0
#: ``stats`` and ``shutdown`` requests sent around the measured phases.
CONTROL_OPS = 3


def _frame(message: dict[str, Any]) -> bytes:
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    return len(payload).to_bytes(4, "big") + payload


def _request_message(request_id: int, op: str, app: str, batch: str,
                     count: int) -> dict[str, Any]:
    field = "max_instances" if op == "place" else "instances"
    return {"v": 1, "id": request_id, "op": op, "latency_app": app,
            "batch": batch, field: count}


def split_frames(buffer: bytearray, arrived: float,
                 sink: list[tuple[float, bytes]], limit: int) -> None:
    """Move whole frames from ``buffer`` to ``sink`` until it holds ``limit``."""
    pos = 0
    while len(sink) < limit and len(buffer) - pos >= 4:
        length = int.from_bytes(buffer[pos:pos + 4], "big")
        if len(buffer) - pos < 4 + length:
            break
        sink.append((arrived, bytes(buffer[pos + 4:pos + 4 + length])))
        pos += 4 + length
    del buffer[:pos]


class Connection:
    """One client connection: sequential requests plus raw frame reads."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=60.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = bytearray()

    def close(self) -> None:
        self.sock.close()

    def call(self, message: dict[str, Any]) -> dict[str, Any]:
        """Send one request and wait for the next response frame."""
        self.sock.sendall(_frame(message))
        sink: list[tuple[float, bytes]] = []
        while True:
            split_frames(self.buffer, 0.0, sink, 1)
            if sink:
                return json.loads(sink[0][1])
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise BenchError("the server closed the connection")
            self.buffer += chunk


class Server:
    """The ``serve-api`` CLI process; a context manager that always reaps it."""

    def __init__(self, run: RunDir, label: str, trace: bool) -> None:
        self.cache = run.sub(f"cache-{label}")
        self.report = run.sub(f"{label}.report.json")
        self.spans = run.sub(f"{label}.spans.json") if trace else None
        self.log = run.sub(f"{label}.log")
        self.cmd = python_cmd(
            "repro.cli",
            ["serve-api", "--fast", "--port", "0",
             "--qos", f"average:{QOS_LEVEL}",
             "--metrics-out", str(self.report)],
            spans_out=self.spans)
        self.env = child_env(SMITE_CACHE_DIR=str(self.cache))
        self.cwd = run.path
        self.proc: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self.setup_s = 0.0
        self.exit_status: int | None = None

    def __enter__(self) -> "Server":
        with open(self.log, "wb") as err:
            started = time.perf_counter()
            self.proc = subprocess.Popen(
                self.cmd, cwd=self.cwd, env=self.env,
                stdout=subprocess.PIPE, stderr=err)
        line = self._read_line(LISTEN_TIMEOUT_S)
        self.setup_s = time.perf_counter() - started
        if not line.startswith("listening on "):
            self._reap()
            raise BenchError(f"serve-api did not start: {line!r}")
        host, port = line.split()[-1].rsplit(":", 1)
        self.address = (host, int(port))
        return self

    def _read_line(self, timeout_s: float) -> str:
        assert self.proc is not None and self.proc.stdout is not None
        end = time.perf_counter() + timeout_s
        data = b""
        while not data.endswith(b"\n"):
            left = end - time.perf_counter()
            if left <= 0:
                return data.decode(errors="replace")
            ready, _, _ = select.select([self.proc.stdout], [], [], left)
            if not ready:
                continue
            byte = os.read(self.proc.stdout.fileno(), 1)
            if not byte:
                break
            data += byte
        return data.decode(errors="replace").strip()

    def cpu_s(self) -> float:
        """User + system CPU of the server process so far."""
        assert self.proc is not None
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self, conn: Connection) -> dict[str, Any] | None:
        """Ask for a drain with the ``shutdown`` op and wait for the exit.

        Returns the ``shutdown`` response; ``exit_status`` stays None
        when the server did not exit within :data:`EXIT_TIMEOUT_S`.
        """
        assert self.proc is not None
        response = None
        try:
            response = conn.call({"v": 1, "id": "shutdown", "op": "shutdown"})
            self.exit_status = self.proc.wait(timeout=EXIT_TIMEOUT_S)
        except (OSError, BenchError, subprocess.TimeoutExpired) as exc:
            print(f"serve-api did not drain: {exc!r}", file=sys.stderr)
        return response

    def __exit__(self, *exc_info) -> None:
        self._reap()

    def _reap(self) -> None:
        """Kill the server if it is still running and wait for it."""
        assert self.proc is not None
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    def counters(self) -> dict[str, float]:
        if not self.report.exists():
            return {}
        report = json.loads(self.report.read_text(encoding="utf-8"))
        return report.get("metrics", {}).get("counters", {})


def _working_set() -> list[tuple[str, str, int]]:
    sys.path.insert(0, str(SRC))
    from repro.workloads.cloudsuite import cloudsuite_apps
    from repro.workloads.spec import spec_even, spec_odd

    profiles = [p.name for p in spec_even()] + [p.name for p in spec_odd()]
    return [(app.name, batch, count)
            for app in cloudsuite_apps() for batch in profiles
            for count in range(1, MAX_INSTANCES + 1)]


class _Expected:
    """The answers the server should give, from the client's own predictor."""

    def __init__(self, cache_dir: Path) -> None:
        from repro.core.predictor import SMiTe
        from repro.smt.diskcache import PersistentSolveCache
        from repro.smt.params import SANDY_BRIDGE_EN
        from repro.smt.simulator import Simulator
        from repro.workloads.cloudsuite import CLOUDSUITE
        from repro.workloads.registry import get_profile
        from repro.workloads.spec import spec_odd

        simulator = Simulator(SANDY_BRIDGE_EN,
                              disk_cache=PersistentSolveCache(cache_dir))
        training = spec_odd()[:8]
        self.predictor = SMiTe(simulator).fit(training, mode="smt")
        self.predictor.fit_server(training, instance_counts=(1, 3, 6))
        self.budget = 1.0 - QOS_LEVEL
        self._apps = CLOUDSUITE
        self._profile = get_profile
        self._memo: dict[tuple[str, str, int], float] = {}

    def predicted(self, app: str, batch: str, count: int) -> float:
        key = (app, batch, count)
        if key not in self._memo:
            self._memo[key] = self.predictor.predict_server(
                self._apps[app].profile, self._profile(batch),
                instances=count)
        return self._memo[key]

    def safe_count(self, app: str, batch: str, count: int) -> int:
        """The largest count, scanning down from ``count``, in budget."""
        for instances in range(count, 0, -1):
            if self.predicted(app, batch, instances) <= self.budget:
                return instances
        return 0


def _sequential_pass(conn: Connection, keys, order, first_id: int,
                     requests: list, responses: dict) -> float:
    started = time.perf_counter()
    for offset, k in enumerate(order):
        app, batch, count = keys[k]
        request_id = first_id + offset
        requests.append(("place", app, batch, count))
        response = conn.call(_request_message(request_id, "place", app,
                                              batch, count))
        responses.setdefault(response.get("id"), []).append(response)
    return time.perf_counter() - started


def _open_loop(conn: Connection, keys, rng, seconds: float, first_id: int,
               requests: list, responses: dict,
               server_cpu: Callable[[], float]) -> dict[str, Any]:
    """Drive the seeded schedule; returns latencies, lateness and CPU.

    One thread sends and receives: it waits in ``select`` for either a
    response or the next due time, so the generator never competes with
    a reader thread for the interpreter lock. ``cpu`` is the server's
    CPU time over the whole loop.
    """
    n = max(1, round(RATE_PER_S * seconds))
    offsets = rng.exponential(1.0 / RATE_PER_S, size=n).cumsum().tolist()
    is_place = (rng.random(n) < PLACE_SHARE).tolist()
    picks = rng.integers(0, len(keys), size=n).tolist()
    frames = []
    for i in range(n):
        op = "place" if is_place[i] else "predict"
        app, batch, count = keys[picks[i]]
        requests.append((op, app, batch, count))
        frames.append(_frame(_request_message(first_id + i, op, app, batch,
                                              count)))
    received: list[tuple[float, bytes]] = []
    late = [0.0] * n
    sock = conn.sock
    buffer = conn.buffer
    start = time.perf_counter() + 0.01
    cpu_before = server_cpu()
    i = 0
    give_up = start + offsets[-1] + OPEN_LOOP_DRAIN_S
    while len(received) < n:
        now = time.perf_counter()
        if now > give_up:
            raise BenchError(f"the open loop lost {n - len(received)} "
                             "responses")
        if i < n and start + offsets[i] <= now:
            j = i + 1
            while j < n and start + offsets[j] <= now:
                j += 1
            sock.sendall(b"".join(frames[i:j]))
            sent = time.perf_counter()
            for k in range(i, j):
                late[k] = sent - (start + offsets[k])
            i = j
            continue
        wait = start + offsets[i] - now if i < n else give_up - now
        readable, _, _ = select.select([sock], [], [], max(wait, 0.0))
        if not readable:
            continue
        chunk = sock.recv(1 << 16)
        if not chunk:
            raise BenchError("the server closed the connection")
        buffer += chunk
        split_frames(buffer, time.perf_counter(), received, n)
    cpu = server_cpu() - cpu_before
    latencies = []
    for received_at, payload in received:
        response = json.loads(payload)
        request_id = response.get("id")
        responses.setdefault(request_id, []).append(response)
        if isinstance(request_id, int) and first_id <= request_id < first_id + n:
            due = start + offsets[request_id - first_id]
            latencies.append(received_at - due)
    return {"n": n, "latencies": latencies, "late": late, "cpu": cpu,
            "window": (start, time.perf_counter())}


def run(seed: int, seconds: int, trace: bool, deadline: Deadline
        ) -> dict[str, Any]:
    """One run of the workload; returns the result object to print."""
    import numpy as np

    keys = _working_set()
    order = np.random.default_rng(COLD_ORDER_SEED).permutation(
        len(keys)).tolist()
    rng = np.random.default_rng(seed)
    requests: list[tuple[str, str, str, int]] = []
    responses: dict[Any, list[dict[str, Any]]] = {}
    launches = 1 if trace else LAUNCHES
    setup_walls: list[float] = []
    cold_walls: list[float] = []
    control: list[dict[str, Any] | None] = []
    failed_servers = 0

    with RunDir() as run_dir:
        for launch in range(launches):
            last = launch == launches - 1
            with Server(run_dir, f"launch-{launch}", trace and last
                        ) as server:
                setup_walls.append(server.setup_s)
                conn = Connection(*server.address)
                try:
                    first_id = len(requests)
                    marks = {"listening": time.perf_counter()}
                    cold_walls.append(_sequential_pass(
                        conn, keys, order, first_id, requests, responses))
                    marks["cold"] = time.perf_counter()
                    if last:
                        control.append(conn.call(
                            {"v": 1, "id": "stats-0", "op": "stats"}))
                        loop = _open_loop(conn, keys, rng, seconds,
                                          len(requests), requests,
                                          responses, server.cpu_s)
                        control.append(conn.call(
                            {"v": 1, "id": "stats-1", "op": "stats"}))
                    deadline.left()
                    control.append(server.stop(conn))
                finally:
                    conn.close()
            failed_servers += server.exit_status != 0
        # The last server's books: what it was sent, what it counted.
        counters = server.counters()
        sent_to_last = len(requests) - first_id
        spans = (tracing.load(str(server.spans))
                 if server.spans is not None and server.spans.exists()
                 else [])
        peak_rss = children_peak_rss_mb()
        expected = _Expected(server.cache)
        problems, admission_sheds, queue_sheds = checks.check_answers(
            requests, responses, expected.safe_count, expected.predicted)

    answered_last = sum(len(responses.get(i, []))
                        for i in range(first_id, len(requests)))
    problems += checks.check_books(
        sent_to_last, answered_last, counters.get("serve.api.requests"),
        CONTROL_OPS)
    if not all(r is not None and r.get("ok") for r in control):
        problems.append("a stats or shutdown request failed")
    answered_once = [responses[i][0] for i in range(len(requests))
                     if len(responses.get(i, [])) == 1]
    errors = sum(1 for r in answered_once if not r.get("ok")
                 and r.get("error", {}).get("code") != "overloaded")
    failed = failed_servers + len(requests) - len(answered_once) + errors
    attempted = len(requests) + launches

    n = loop["n"]
    latencies_ms = [x * 1e3 for x in loop["latencies"]]
    late_ms = [x * 1e3 for x in loop["late"]]
    cpu_us_per_req = loop["cpu"] * 1e6 / n
    # Latency is reported, not gated: the quartile spread of its median
    # was 16-24% over ten runs here, and of its p99 31-53% over five,
    # at or past the largest bound (0.25) a metric may have.
    tail = tail_percentile(latencies_ms)
    print(f"api_open_loop: {n} open-loop requests at {RATE_PER_S:.0f}/s, "
          f"{admission_sheds} admission sheds, {queue_sheds} queue sheds; "
          f"latency from due p50 {percentile(latencies_ms, 50):.3f} ms, "
          f"p99 {percentile(latencies_ms, 99):.3f} ms"
          + (f", p{tail[0]:g} {tail[1]:.3f} ms over {len(latencies_ms)} "
             f"samples" if tail else "")
          + f"; sender lateness p99 {percentile(late_ms, 99):.3f} ms; "
          f"cold passes {[round(c, 3) for c in cold_walls]} s",
          file=sys.stderr)

    if trace:
        lo, hi = loop["window"]
        window = tracing.in_window(spans, lo, hi)
        top_cpu = sum(s[tracing.CPU_END] - s[tracing.CPU_START]
                      for s in tracing.top_level(window))
        cold_window = tracing.in_window(spans, marks["listening"],
                                        marks["cold"])
        setup_window = tracing.in_window(spans, 0.0, marks["listening"])
        before, after = control[0]["result"], control[1]["result"]
        requests_delta = after["requests"] - before["requests"]
        batches_delta = after["batches"] - before["batches"]
        lru_total = (counters.get("serve.service.cache_hits", 0)
                     + counters.get("serve.service.cache_misses", 0))
        metrics = {
            "api.protocol_s": tracing.layer_seconds(window, spans,
                                                    "api.protocol"),
            "api.service.begin_epoch_s": tracing.layer_seconds(
                window, spans, "api.service.begin_epoch"),
            "api.service.decide_s": tracing.layer_seconds(
                window, spans, "api.service.decide"),
            "api.batch_occupancy": (requests_delta / batches_delta
                                    if batches_delta else 0.0),
            "api.lru_hit_ratio": (counters.get("serve.service.cache_hits", 0)
                                  / lru_total if lru_total else 0.0),
            "api.sheds": float(counters.get("serve.service.sheds", 0)
                               + counters.get("serve.api.sheds", 0)),
            "api.unattributed_cpu_us_per_req":
                (loop["cpu"] - top_cpu) * 1e6 / n,
            "api.generator_late_ms": percentile(late_ms, 99),
            "api.cold.prefetch_s": tracing.layer_seconds(
                cold_window, spans, "smt.simulator.prefetch"),
            "api.setup.fit_s": tracing.layer_seconds(
                setup_window, spans, "core.predictor.fit",
                "core.predictor.fit_server"),
            "api.traced_cold_s": cold_walls[-1],
            "api.traced_cpu_us_per_req": cpu_us_per_req,
        }
        if spans:
            print(tracing.render_self_times(
                "api_open_loop server, open-loop window", window),
                file=sys.stderr)
    else:
        metrics = {
            "setup_s": median(setup_walls),
            "cold_s": median(cold_walls),
            # The solver-idle phase's cost: server CPU over the open loop.
            # Wall time of sequential warm passes followed the host's
            # scheduling latency too closely to gate (see README.md).
            "warm_s": loop["cpu"],
            "cpu_us_per_req": cpu_us_per_req,
            "peak_rss_mb": peak_rss,
        }
    return {"problems": problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}

