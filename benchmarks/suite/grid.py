"""Grid workload: one scenario grid through the supervised journal and the shard fabric.

Each round builds a grid of synthetic 93-day loads × the five archetype
contracts (``run_scenario`` points over a shared payload) and runs it
three times: supervised with an fsync'd journal, through the 8-shard
fabric with one in-process worker, and through plain ``sweep_map`` as
the no-runtime reference.  Every pass gets freshly generated load
objects, and every round a seed range no other round uses, so no plan,
price or bill memo can answer a point.  Points are cheap (~0.2 ms), so
fingerprinting, pickling, journal writes and fsync are a large share of
the runtime passes.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

import numpy as np

from .common import (
    Deadline,
    RunResult,
    peak_rss_mb,
    remove_tree,
    windowed_percentile,
    work_dir,
)
from .ledger import Ledger

DAYS = 93
INTERVAL_S = 900.0
LOADS_PER_ROUND = 256
#: The five archetype contracts of :func:`build_payload`.
N_CONTRACTS = 5
N_SHARDS = 8
#: Window of the burst-robust latency percentiles (s).
WINDOW_S = 1.0


@dataclass
class GridPayload:
    """The sweep-wide shared payload: loads, contracts, periods.

    ``stamps`` collects the start time of every point, so consecutive
    differences give each point's latency through the runtime.
    """

    loads: list
    contracts: list
    periods: list
    stamps: List[float] = field(default_factory=list)
    ledger: Optional[Ledger] = None
    unit_base: int = 0


def grid_point(point: Tuple[int, int]) -> Tuple[float, float, float, float]:
    """One grid point: settle load ``i`` under contract ``j``."""
    from repro.analysis import scenarios
    from repro.analysis.sweep import shared_payload

    payload = shared_payload()
    payload.stamps.append(time.perf_counter())
    i, j = point
    spec = scenarios.ScenarioSpec(
        f"grid-{i}-{j}", payload.contracts[j], payload.loads[i],
        periods=payload.periods,
    )
    if payload.ledger is None:
        bill = scenarios.run_scenario(spec).bill
    else:
        with payload.ledger.unit(payload.unit_base + N_CONTRACTS * i + j):
            bill = scenarios.run_scenario(spec).bill
    return (bill.total, bill.energy_cost, bill.demand_cost, bill.other_cost)


def build_payload(seeds: range) -> GridPayload:
    """Fresh load objects for ``seeds`` under the archetype contracts."""
    from repro.analysis.scenarios import synthetic_sc_load
    from repro.contracts import tariff_library as lib
    from repro.timeseries.calendar import BillingPeriod

    loads = []
    for s in seeds:
        peak_mw = 1.0 + 19.0 * np.random.default_rng([s, 93]).random()
        loads.append(
            synthetic_sc_load(peak_mw, n_days=DAYS, interval_s=INTERVAL_S, seed=s)
        )
    contracts = [
        lib.us_industrial_tou("grid", 10_000.0),
        lib.german_industrial("grid", 10_000.0),
        lib.nordic_spot_passthrough("grid"),
        lib.swiss_post_tender("grid"),
        lib.us_federal_with_emergency("grid", 10_000.0),
    ]
    day = 86_400.0
    periods = [BillingPeriod(f"m{k}", k * 31 * day, (k + 1) * 31 * day) for k in range(3)]
    return GridPayload(loads, contracts, periods)


def _items(n_loads: int) -> List[Tuple[int, int]]:
    return [(i, j) for i in range(n_loads) for j in range(N_CONTRACTS)]


@dataclass
class Round:
    """What one round's passes took and returned."""

    times: Dict[str, float] = field(default_factory=dict)
    results: Dict[str, list] = field(default_factory=dict)
    reports: Dict[str, object] = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list)
    latency_at: List[float] = field(default_factory=list)
    setups: List[float] = field(default_factory=list)


def run_pass(kind: str, payload: GridPayload, items: list, scratch: Path):
    """One pass: ``supervised``, ``fabric``, ``fabric2`` or ``plain``."""
    from repro.analysis.sweep import sweep_map
    from repro.robustness.shards import run_sharded
    from repro.robustness.supervisor import SweepSupervisor

    if kind == "supervised":
        # what sweep_map(parallel=False, supervised=True, journal=...) runs,
        # called directly so the report can be checked
        sup = SweepSupervisor(
            parallel=False, journal=scratch / "journal.jsonl",
            sweep_id="suite-grid", shared=payload,
        )
        report = sup.run(grid_point, items)
        return report.results, report
    if kind in ("fabric", "fabric2"):
        report = run_sharded(
            grid_point, items, scratch / kind, n_shards=N_SHARDS,
            n_workers=2 if kind == "fabric2" else 1, sweep_id="suite-grid",
            shared=payload,
        )
        return report.results, report
    return sweep_map(grid_point, items, parallel=False, shared=payload), None


def run_round(
    seed: int, r: int, n_loads: int, passes: Tuple[str, ...],
    ledger: Optional[Ledger] = None,
) -> Round:
    """Run ``passes`` over round ``r``'s grid; fresh payload per pass."""
    seeds = range(seed * 1_000_000 + r * n_loads, seed * 1_000_000 + (r + 1) * n_loads)
    items = _items(n_loads)
    out = Round()
    scratch = work_dir()
    try:
        for kind in passes:
            t0 = time.perf_counter()
            payload = build_payload(seeds)
            out.setups.append(time.perf_counter() - t0)
            payload.ledger, payload.unit_base = ledger, r * len(items)
            t0 = time.perf_counter()
            results, report = run_pass(kind, payload, items, scratch)
            out.times[kind] = time.perf_counter() - t0
            out.results[kind] = results
            out.reports[kind] = report
            if kind in ("supervised", "fabric"):
                out.latencies.extend(np.diff(payload.stamps).tolist())
                out.latency_at.extend(payload.stamps[1:])
    finally:
        remove_tree(scratch)
    return out


def check_round(result: RunResult, rnd: Round) -> None:
    """Bit-identical results across passes, nothing quarantined, accounting holds."""
    reference = rnd.results.get("plain")
    for kind, results in rnd.results.items():
        if reference is not None and kind != "plain":
            result.check(f"{kind}_equals_plain", results == reference)
        report = rnd.reports.get(kind)
        if report is not None:
            result.check(f"{kind}_no_quarantine", not report.quarantined)
            result.check(f"{kind}_accounted", report.accounted())
            result.failed += len(report.quarantined)


def install_grid(ledger: Ledger) -> None:
    """Wrap the item, journal, fsync, fingerprint and shard layers."""
    from repro.analysis import scenarios
    from repro.robustness import journal, shards, supervisor

    ledger.wrap(scenarios, "run_scenario", "grid.item")
    ledger.wrap(journal.SweepJournal, "record", "robustness.journal.SweepJournal.record")
    ledger.wrap(os, "fsync", "os.fsync")
    for module in (supervisor, shards):
        ledger.wrap(module, "item_fingerprint", "robustness.journal.item_fingerprint")
    for name in ("grid_fingerprint", "create_sweep", "merge_shard_journals"):
        ledger.wrap(shards, name, f"robustness.shards.{name}")


def measure(seed: int, seconds: float, trace: bool, scale: float) -> RunResult:
    n_loads = max(8, int(round(LOADS_PER_ROUND * scale)))
    points = N_CONTRACTS * n_loads
    result = RunResult()
    rounds: List[Round] = []
    deadline = Deadline(seconds / 3 if trace else seconds)
    while not rounds or not deadline.over():
        rnd = run_round(seed, len(rounds), n_loads, ("supervised", "fabric", "plain"))
        check_round(result, rnd)
        rounds.append(rnd)
    t = {k: sum(r.times[k] for r in rounds) for k in ("supervised", "fabric", "plain")}
    result.attempted = 3 * points * len(rounds)
    result.notes.update({"rounds": len(rounds), "points_per_round": points})
    if not trace:
        latencies = [x for r in rounds for x in r.latencies]
        at = [x for r in rounds for x in r.latency_at]
        result.end_to_end = {
            "throughput": median(
                2 * points / (r.times["supervised"] + r.times["fabric"]) for r in rounds
            ),
            "latency_p50_ms": windowed_percentile(at, latencies, 50, WINDOW_S) * 1e3,
            "latency_p99_ms": windowed_percentile(at, latencies, 99, WINDOW_S) * 1e3,
            "setup_s": median(s for r in rounds for s in r.setups),
            "peak_rss_mb": peak_rss_mb(),
        }
        result.notes.update(
            {
                "latency_samples": len(latencies),
                "supervised_points_per_s": points * len(rounds) / t["supervised"],
                "fabric_points_per_s": points * len(rounds) / t["fabric"],
            }
        )
        return result

    two = run_round(seed, len(rounds), n_loads, ("fabric2",))
    check_round(result, two)
    result.attempted += points
    untraced_s = (t["supervised"] + t["fabric"]) / len(rounds)
    ledger = Ledger(seed=seed)
    install_grid(ledger)
    traced: List[Round] = []
    try:
        deadline = Deadline(2 * seconds / 3)
        while not traced or not deadline.over():
            base = 1 + len(rounds) + len(traced)
            traced.append(
                run_round(seed, base, n_loads, ("supervised", "fabric"), ledger)
            )
            check_round(result, traced[-1])
    finally:
        ledger.uninstall()
    result.attempted += 2 * points * len(traced)
    traced_s = sum(r.times["supervised"] + r.times["fabric"] for r in traced)
    snap = ledger.snapshot()
    total, calls = snap["total_s"], snap["calls"]
    runtime_points = 2 * points * len(traced)
    result.per_layer = {
        "grid.item.us_per_point":
            total.get("grid.item", 0.0) / max(calls.get("grid.item", 0), 1) * 1e6,
        "robustness.journal.SweepJournal.record.us_per_point":
            total.get("robustness.journal.SweepJournal.record", 0.0)
            / (points * len(traced)) * 1e6,
        "os.fsync.count": float(calls.get("os.fsync", 0)),
        "os.fsync.us_per_point": total.get("os.fsync", 0.0) / runtime_points * 1e6,
        "robustness.shards.grid_fingerprint.s":
            total.get("robustness.shards.grid_fingerprint", 0.0),
        "robustness.shards.create_sweep.s":
            total.get("robustness.shards.create_sweep", 0.0),
        "robustness.shards.merge_shard_journals.s":
            total.get("robustness.shards.merge_shard_journals", 0.0),
        "grid.runtime_overhead_frac.supervised": 1.0 - t["plain"] / t["supervised"],
        "grid.runtime_overhead_frac.fabric": 1.0 - t["plain"] / t["fabric"],
        "grid.fabric.points_per_s": points * len(rounds) / t["fabric"],
        "grid.fabric_2workers.points_per_s": points / two.times["fabric2"],
        "unattributed_frac": 1.0 - snap["top_s"] / traced_s,
        "trace_overhead_frac": (traced_s / len(traced)) / untraced_s - 1.0,
    }
    result.notes["ledger"] = {k: snap[k] for k in ("total_s", "self_s", "calls")}
    result.notes["spans"] = ledger.span_records()
    return result
