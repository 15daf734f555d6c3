"""Serving workloads: ``python -m repro serve`` driven over its socket.

The server runs in its own process; this process is the load generator
(:mod:`benchmarks.suite.loadgen`).  Expected responses come from the
same public calls on a :func:`~repro.service.catalog.default_catalog`
built here, so every answered request is checked byte for byte.
"""

from __future__ import annotations

import json
import os
import random
import socket
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from .common import (
    ROOT,
    RunResult,
    child_env,
    cpu_seconds,
    peak_rss_mb,
    percentile,
    remove_tree,
    windowed_percentile,
    work_dir,
)
from .loadgen import LoadGenerator, PhaseStats, Request, request_template

#: Open-loop rate for serve-summary: about half the measured capacity.
OPEN_RATE_PER_S = 8000.0
#: Closed-loop requests in flight per connection.
DEPTH = 64
#: Server launches per run; ``setup_s`` is their median.
SETUP_LAUNCHES = 3
#: Validity limits on the load generator itself.
MAX_LOADGEN_CPU_FRAC = 0.8
MAX_LATE_P99_S = 0.002
#: Window of the burst-robust statistics: throughput and latency
#: percentiles are medians over windows this long.
WINDOW_S = 0.5


def _cpus() -> Tuple[Optional[int], Optional[int]]:
    """``(load generator CPU, server CPU)``, or ``(None, None)`` on one CPU.

    Pinning the two processes apart keeps the generator from taking the
    server's CPU; unpinned, the scheduler's placement alone moved
    closed-loop throughput by ~15% between runs on a 2-CPU host.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[-1]) if len(cpus) > 1 else (None, None)


class Server:
    """One ``repro serve`` process on an ephemeral port, pinned to its own CPU."""

    def __init__(
        self, sites: int, cpu: Optional[int], ledger: Optional[Path] = None,
        seed: int = 0,
    ):
        if ledger is None:
            cmd = [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
                   "--sites", str(sites)]
        else:
            cmd = [sys.executable, "-u", "-m", "benchmarks.suite.serve_traced",
                   "--ledger", str(ledger), "--seed", str(seed),
                   "--sites", str(sites)]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        try:
            if cpu is not None:
                os.sched_setaffinity(self.proc.pid, {cpu})
            line = self.proc.stdout.readline().decode()
            if "listening on" not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.rsplit(":", 1)[1])
            self.call({"op": "ping"})
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t0

    def call(self, frame: Dict[str, object]) -> Dict[str, object]:
        with socket.create_connection(("127.0.0.1", self.port), timeout=30) as s:
            s.sendall((json.dumps(dict(frame, id=1)) + "\n").encode())
            return json.loads(s.makefile("rb").readline())

    def cpu_s(self) -> float:
        return cpu_seconds(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def shutdown(self) -> None:
        try:
            self.call({"op": "shutdown"})
            self.proc.wait(timeout=30)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


# -- traffic ---------------------------------------------------------------


def _catalog(sites: int):
    from repro.service.catalog import default_catalog

    return default_catalog(n_sites=sites)


def summary_requests(sites: int, seed: int, n: int = 4000) -> List[Request]:
    """Round-robin contracts, seeded load order, summary detail."""
    from repro.service.batching import encode_bill

    catalog = _catalog(sites)
    names, loads = catalog.contract_names(), catalog.load_names()
    templates = {
        (c, l): request_template(
            "price", {"contract": c, "load": l, "detail": "summary"},
            encode_bill(catalog.price(c, l), "summary"),
        )
        for c in names
        for l in loads
    }
    rng = random.Random(seed)
    return [templates[names[i % len(names)], rng.choice(loads)] for i in range(n)]


def full_requests(sites: int, seed: int, n: int = 4000) -> List[Request]:
    """Seeded mix: 60% full-detail ``price``, 30% ``price_many``, 10% ``compare``."""
    from repro.service.batching import encode_bill
    from repro.service.tools import default_registry

    catalog = _catalog(sites)
    registry = default_registry(catalog)
    names, loads = catalog.contract_names(), catalog.load_names()
    rng = random.Random(seed)
    cache: Dict[Tuple, Request] = {}

    def template(kind: str, load: str, contract: str = "") -> Request:
        key = (kind, load, contract)
        if key in cache:
            return cache[key]
        if kind == "price":
            params = {"contract": contract, "load": load, "detail": "full"}
            expected = encode_bill(catalog.price(contract, load), "full")
        elif kind == "price_many":
            params = {"load": load}
            bills = [encode_bill(catalog.price(c, load)) for c in names]
            expected = {
                "load": load, "bills": bills, "partial": False,
                "n_requested": len(names), "n_priced": len(names),
                "n_timed_out": 0, "timed_out": [],
            }
        else:
            params = {"load": load}
            expected = registry.call("compare_contracts", {"load": load})
        cache[key] = request_template(kind, params, expected)
        return cache[key]

    out = []
    for i in range(n):
        u, load = rng.random(), rng.choice(loads)
        if u < 0.6:
            out.append(template("price", load, names[i % len(names)]))
        elif u < 0.9:
            out.append(template("price_many", load))
        else:
            out.append(template("compare", load))
    return out


# -- measuring -------------------------------------------------------------


def _ms(values_s: List[float], q: float) -> float:
    return percentile(values_s, q) * 1e3


def closed_loop_rate(phase: PhaseStats) -> float:
    """Median over :data:`WINDOW_S` windows of answered requests per second."""
    counts = [0] * max(1, int(phase.wall_s / WINDOW_S))
    for t in phase.done_at:
        k = int((t - phase.started_at) / WINDOW_S)
        if 0 <= k < len(counts):
            counts[k] += 1
    return median(counts) / WINDOW_S


def latency_ms(phase: PhaseStats, q: float) -> float:
    """Median over :data:`WINDOW_S` windows of the window's ``q`` percentile."""
    return windowed_percentile(phase.done_at, phase.latencies_s, q, WINDOW_S) * 1e3


def _absorb(result: RunResult, phase: PhaseStats, name: str) -> None:
    result.attempted += phase.sent
    result.failed += phase.failed
    if phase.bad_keys:
        result.notes[f"{name}.bad_keys"] = phase.bad_keys
    result.checks[f"{name}.all_answered_ok"] = phase.failed == 0


def _phases(
    server: Server, requests: List[Request], seconds: float, seed: int,
    open_loop: bool, result: RunResult,
) -> Tuple[Optional[PhaseStats], PhaseStats, float]:
    """Phase A (open loop, serve-summary only) then phase B (closed loop).

    Returns the two phases and the server CPU seconds spent in phase B.
    """
    gen = LoadGenerator("127.0.0.1", server.port, n_conns=2)
    try:
        phase_a = None
        if open_loop:
            phase_a = gen.open_loop(requests, OPEN_RATE_PER_S, 0.6 * seconds, seed)
            _absorb(result, phase_a, "open_loop")
            seconds *= 0.4
        cpu0 = server.cpu_s()
        phase_b = gen.closed_loop(requests, DEPTH, seconds, seed + 1)
        cpu_b = server.cpu_s() - cpu0
        _absorb(result, phase_b, "closed_loop")
    finally:
        gen.close()
    return phase_a, phase_b, cpu_b


def _validity(result: RunResult, phase_a, phase_b) -> None:
    cpu_frac = max(p.cpu_frac for p in (phase_a, phase_b) if p is not None)
    result.notes["loadgen.cpu_frac"] = cpu_frac
    result.check("valid.loadgen_cpu_frac", cpu_frac <= MAX_LOADGEN_CPU_FRAC)
    if phase_a is not None:
        late = percentile(phase_a.late_s, 99)
        result.notes["loadgen.late_p99_ms"] = late * 1e3
        result.check("valid.loadgen_late_p99", late <= MAX_LATE_P99_S)


def measure(kind: str, seed: int, seconds: float, trace: bool, scale: float) -> RunResult:
    """One serve-summary or serve-full run."""
    summary = kind == "serve-summary"
    sites = 8 if summary else max(2, int(round(64 * scale)))
    make = summary_requests if summary else full_requests
    requests = make(sites, seed)
    result = RunResult()
    result.notes["sites"] = sites
    own = os.sched_getaffinity(0)
    gen_cpu, cpu = _cpus()
    if gen_cpu is not None:
        os.sched_setaffinity(0, {gen_cpu})
    try:
        if trace:
            return _measure_traced(summary, sites, cpu, requests, seed, seconds, result)
        return _measure_untraced(summary, sites, cpu, requests, seed, seconds, result)
    finally:
        os.sched_setaffinity(0, own)


def _measure_untraced(summary, sites, cpu, requests, seed, seconds, result) -> RunResult:
    """Three launches for ``setup_s``; the last server takes the load."""
    setups = []
    for _ in range(SETUP_LAUNCHES - 1):
        server = Server(sites, cpu)
        setups.append(server.setup_s)
        server.shutdown()
    server = Server(sites, cpu)
    setups.append(server.setup_s)
    try:
        phase_a, phase_b, cpu_b = _phases(
            server, requests, seconds, seed, summary, result
        )
        rss = server.peak_rss_mb()
    finally:
        server.shutdown()
    timed = phase_a or phase_b
    result.end_to_end = {
        "throughput": closed_loop_rate(phase_b),
        "latency_p50_ms": latency_ms(timed, 50),
        "latency_p99_ms": latency_ms(timed, 99),
        "setup_s": median(setups),
        "peak_rss_mb": rss,
    }
    result.notes.update(
        {
            "latency_samples": len(timed.latencies_s),
            "latency_source": "open loop, from due time" if summary
            else "closed loop, from send time",
            "server.cpu_us_per_req": cpu_b / max(phase_b.answered, 1) * 1e6,
            "setup_launches": setups,
        }
    )
    _validity(result, phase_a, phase_b)
    return result


def _measure_traced(summary, sites, cpu, requests, seed, seconds, result) -> RunResult:
    """Untraced closed loop for a quarter, then the traced server for the rest."""
    plain = Server(sites, cpu)
    try:
        _, plain_b, plain_cpu = _phases(plain, requests, seconds / 4, seed, False, result)
    finally:
        plain.shutdown()
    scratch = work_dir()
    ledger_path = scratch / "ledger.json"
    try:
        server = Server(sites, cpu, ledger=ledger_path, seed=seed)
        try:
            cpu0 = server.cpu_s()
            phase_a, phase_b, _ = _phases(
                server, requests, 3 * seconds / 4, seed, summary, result
            )
            cpu_all = server.cpu_s() - cpu0
        finally:
            server.shutdown()
        ledger = json.loads(ledger_path.read_text())
    finally:
        remove_tree(scratch)
    answered = phase_b.answered + (phase_a.answered if phase_a else 0)
    plain_rps = closed_loop_rate(plain_b)
    traced_rps = closed_loop_rate(phase_b)
    _validity(result, phase_a, phase_b)
    untraced_cpu_s = plain_cpu / max(plain_b.answered, 1)
    result.per_layer = serving_layers(ledger, cpu_all, answered, untraced_cpu_s)
    result.per_layer["loadgen.cpu_frac"] = result.notes["loadgen.cpu_frac"]
    result.per_layer["loadgen.late_p99_ms"] = result.notes.get("loadgen.late_p99_ms", 0.0)
    result.per_layer["trace_overhead_frac"] = plain_rps / traced_rps - 1.0
    result.notes["ledger"] = {k: ledger[k] for k in ("total_s", "self_s", "calls")}
    result.notes["spans"] = ledger["spans"]
    return result


#: Sync layers whose self time the server's CPU covers (the residual is the rest).
_SERVER_LAYERS = (
    "service.resilience.parse_frame",
    "service.admission.admit",
    "service.catalog.price_many",
    "service.catalog.price",
    "service.batching.encode_bill",
    "service.tools.ToolRegistry.call",
    "service.server.json_dumps",
    "service.server.write",
)


def serving_layers(
    ledger: Dict, server_cpu_s: float, answered: int, untraced_cpu_s: float
) -> Dict[str, float]:
    """Per-request serving layer metrics from a server ledger.

    The residual is taken against the *untraced* server CPU per request
    (``untraced_cpu_s``), so the wrappers' own cost does not land in it.
    """
    total, self_s, calls = ledger["total_s"], ledger["self_s"], ledger["calls"]
    n = max(answered, 1)

    def per_call(name: str, scale: float) -> float:
        return total.get(name, 0.0) / max(calls.get(name, 0), 1) * scale

    price = ledger["samples"].get("service.batching.price", [])
    batcher = ledger["batcher"]
    covered = sum(self_s.get(name, 0.0) for name in _SERVER_LAYERS) / n
    cpu_us = server_cpu_s / n * 1e6
    return {
        "server.cpu_us_per_req": cpu_us,
        "service.resilience.parse_frame.us_per_req":
            total.get("service.resilience.parse_frame", 0.0) / n * 1e6,
        "service.admission.admit.us_per_req":
            total.get("service.admission.admit", 0.0) / n * 1e6,
        "service.batching.price_ms_p50": _ms(price, 50) if price else 0.0,
        "service.batching.price_ms_p99": _ms(price, 99) if price else 0.0,
        "service.batching.batch_size_mean":
            batcher["n_bills"] / max(batcher["n_batches"], 1),
        "service.batching.settle_us_per_bill":
            batcher["settle_s_total"] / max(batcher["n_bills"], 1) * 1e6,
        "service.catalog.price_many.us_per_call":
            per_call("service.catalog.price_many", 1e6),
        "service.catalog.price.us_per_call": per_call("service.catalog.price", 1e6),
        "service.batching.encode_bill.us_per_call":
            per_call("service.batching.encode_bill", 1e6),
        "service.tools.ToolRegistry.call.ms_per_call":
            per_call("service.tools.ToolRegistry.call", 1e3),
        "service.server.json_dumps.us_per_resp":
            total.get("service.server.json_dumps", 0.0) / n * 1e6,
        "service.server.write.us_per_resp":
            total.get("service.server.write", 0.0) / n * 1e6,
        "service.loop_residual_us_per_req": (untraced_cpu_s - covered) * 1e6,
        "unattributed_frac": 1.0 - covered / untraced_cpu_s,
    }
