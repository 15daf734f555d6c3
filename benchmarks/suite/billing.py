"""Billing workloads: population studies and re-pricing held populations.

``population`` pays for everything a study does — load generation,
settlement plan, component kernels, the streaming fold — one
1,024-site-year chunk study after another.  ``reprice`` generates its
populations once, in set-up, and then only settles them under fresh
contract objects, so generation and the fold drop out and the plan and
kernels are what is left.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from statistics import median
from typing import Dict, List, Sequence

import numpy as np

from .common import (
    ROOT,
    Deadline,
    RunResult,
    child_env,
    digest_floats,
    peak_rss_mb,
    percentile,
    windowed_percentile,
    windowed_rate,
)
from .ledger import Ledger

N_INTERVALS = 8760
INTERVAL_S = 3600.0
CHUNK = 1024
#: Populations the re-pricing workload holds in memory.
REPRICE_CHUNKS = 4
#: Sites in the columnar-vs-scalar differential check.
CHECK_SITES = 24
RTOL = 1e-9
#: The traced run fails when more than this share of time has no layer.
MAX_UNATTRIBUTED = 0.10

#: Launch-to-ready probe: a fresh interpreter imports the study and
#: builds its contracts, price context and calendar.
_READY_PROBE = (
    "from repro.analysis.population import population_archetypes, "
    "population_context\n"
    "from repro.timeseries.calendar import monthly_billing_periods\n"
    f"population_archetypes({INTERVAL_S})\n"
    f"population_context({N_INTERVALS}, {INTERVAL_S}, 0)\n"
    "monthly_billing_periods(start_s=0.0)\n"
)


def _rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(1.0, abs(a), abs(b))


def columnar_matches_scalar(loads: np.ndarray, contracts, context) -> bool:
    """``bill_population`` totals equal per-site ``bill`` totals within 1e-9."""
    from repro.contracts.billing import BillingEngine
    from repro.contracts.columnar import SitePopulation
    from repro.timeseries.calendar import monthly_billing_periods

    population = SitePopulation(loads, INTERVAL_S)
    periods = monthly_billing_periods(start_s=0.0)
    engine = BillingEngine()
    for contract in contracts:
        columnar = engine.bill_population(population, contract, periods, context).totals()
        for i in range(population.n_sites):
            scalar = engine.bill(contract, population.site_series(i), periods, context)
            if not _rel_close(float(columnar[i]), scalar.total):
                return False
    return True


def install_billing(ledger: Ledger) -> None:
    """Wrap generation, plan, kernels, engine and fold on their callers' attributes."""
    from repro.analysis import population, streaming
    from repro.contracts import billing, demand_charges, emergency, powerband, tariffs

    ledger.wrap(
        population, "synthetic_load_matrix", "survey.population.synthetic_load_matrix",
        after=lambda args, kwargs, result: ledger.count("values", result[0].size),
    )
    for helper in ("population_archetypes", "population_context", "SitePopulation"):
        ledger.wrap(population, helper, f"analysis.population.{helper}")
    ledger.wrap(billing, "population_plan_for", "contracts.billing.population_plan_for")

    def fallback(args, kwargs, result) -> None:
        if result is None:
            ledger.count("fallback")

    for cls in (
        tariffs.FixedTariff, tariffs.TOUTariff, tariffs.DynamicTariff,
        demand_charges.DemandCharge, powerband.Powerband,
        emergency.EmergencyDRObligation,
    ):
        ledger.wrap(
            cls, "charge_matrix",
            f"contracts.{cls.__module__.rsplit('.', 1)[1]}.{cls.__name__}.charge_matrix",
            after=fallback,
        )
    ledger.wrap(billing.BillingEngine, "bill_population", "contracts.billing.bill_population")
    for cls in (
        streaming.Count, streaming.Sum, streaming.Mean, streaming.Min,
        streaming.Max, streaming.Quantile,
    ):
        ledger.wrap_leaf(cls, "update", "analysis.streaming.update")


#: Kernel layers, in the order the README lists them.
KERNELS = (
    "contracts.tariffs.FixedTariff.charge_matrix",
    "contracts.tariffs.TOUTariff.charge_matrix",
    "contracts.tariffs.DynamicTariff.charge_matrix",
    "contracts.demand_charges.DemandCharge.charge_matrix",
    "contracts.powerband.Powerband.charge_matrix",
    "contracts.emergency.EmergencyDRObligation.charge_matrix",
)


def billing_layers(snap: Dict, e2e_s: float) -> Dict[str, float]:
    """Per-run billing layer metrics from a ledger snapshot."""
    total, self_s = snap["total_s"], snap["self_s"]
    gen = "survey.population.synthetic_load_matrix"
    values = snap["counts"].get("values", 0.0)
    out = {
        "survey.population.synthetic_load_matrix.ns_per_value":
            total.get(gen, 0.0) / values * 1e9 if values else 0.0,
        "contracts.billing.population_plan_for.s":
            total.get("contracts.billing.population_plan_for", 0.0),
        "contracts.billing.bill_population.self_s":
            self_s.get("contracts.billing.bill_population", 0.0),
        "contracts.columnar.fallback.count": snap["counts"].get("fallback", 0.0),
        "analysis.streaming.update.s": total.get("analysis.streaming.update", 0.0),
        "unattributed_frac": 1.0 - snap["top_s"] / e2e_s,
    }
    for name in KERNELS:
        out[f"{name}.s"] = total.get(name, 0.0)
    return out


# -- population --------------------------------------------------------------


def _ready_probe_s() -> float:
    t0 = time.perf_counter()
    # no timeout: a timed wait polls in steps of up to 50 ms, which would
    # quantize the reading; a blocking wait returns when the child exits
    subprocess.run([sys.executable, "-c", _READY_PROBE], cwd=ROOT, env=child_env(),
                   check=True)
    return time.perf_counter() - t0


def _population_calls(seed: int, chunk: int, seconds: float, ledger=None):
    """Chunk studies until the deadline: ``(latencies, sites, totals)``.

    ``totals`` maps each archetype to its ``population_total`` per study.
    """
    from repro.analysis.population import population_bill_study

    # untimed warm-up: lazy imports and calendar caches fill here
    population_bill_study(n_sites=16, n_intervals=N_INTERVALS, chunk=16, seed=seed)
    latencies: List[float] = []
    totals: Dict[str, List[float]] = {}
    k = 0
    deadline = Deadline(seconds)
    while not k or not deadline.over():
        call_seed = seed * 100_003 + k
        t0 = time.perf_counter()
        if ledger is None:
            study = population_bill_study(
                n_sites=chunk, n_intervals=N_INTERVALS, chunk=chunk, seed=call_seed
            )
        else:
            with ledger.unit(k):
                study = population_bill_study(
                    n_sites=chunk, n_intervals=N_INTERVALS, chunk=chunk,
                    seed=call_seed,
                )
        latencies.append(time.perf_counter() - t0)
        for name, stats in study.archetypes.items():
            totals.setdefault(name, []).append(stats["population_total"])
        k += 1
    return latencies, k * chunk, totals


def _check_population(result: RunResult, seed: int) -> None:
    from repro.analysis.population import population_archetypes, population_context
    from repro.survey.population import synthetic_load_matrix

    loads, _ = synthetic_load_matrix(CHECK_SITES, N_INTERVALS, INTERVAL_S, seed=seed)
    result.check(
        "columnar_matches_scalar",
        columnar_matches_scalar(
            loads, population_archetypes(INTERVAL_S),
            population_context(N_INTERVALS, INTERVAL_S, seed),
        ),
    )


def measure_population(seed: int, seconds: float, trace: bool, scale: float) -> RunResult:
    chunk = max(16, int(round(CHUNK * scale)))
    result = RunResult()
    if trace:
        untraced, n_plain, _ = _population_calls(seed, chunk, seconds / 3)
        ledger = Ledger(seed=seed)
        install_billing(ledger)
        try:
            traced, n_traced, totals = _population_calls(
                seed + 1, chunk, 2 * seconds / 3, ledger
            )
        finally:
            ledger.uninstall()
        e2e = sum(traced)
        snap = ledger.snapshot()
        result.per_layer = billing_layers(snap, e2e)
        result.notes["ledger"] = {k: snap[k] for k in ("total_s", "self_s", "calls")}
        result.notes["spans"] = ledger.span_records()
        result.per_layer["trace_overhead_frac"] = (e2e / n_traced) / (
            sum(untraced) / n_plain
        ) - 1.0
        result.check(
            "valid.unattributed_frac", result.per_layer["unattributed_frac"] <= MAX_UNATTRIBUTED
        )
        result.attempted = len(untraced) + len(traced)
    else:
        setups = [_ready_probe_s() for _ in range(3)]
        latencies, n_sites, totals = _population_calls(seed, chunk, seconds)
        result.end_to_end = {
            "throughput": windowed_rate(latencies, [chunk] * len(latencies), 1.0),
            "latency_p50_ms": percentile(latencies, 50) * 1e3,
            "latency_p99_ms": percentile(latencies, 99) * 1e3,
            "setup_s": median(setups),
            "peak_rss_mb": peak_rss_mb(),
        }
        result.attempted = len(latencies)
        result.notes["latency_samples"] = len(latencies)
    result.check(
        "totals_finite", all(np.isfinite(v).all() for v in totals.values())
    )
    result.notes["population_total_digest"] = {
        name: digest_floats(values) for name, values in totals.items()
    }
    result.notes["chunk_sites"] = chunk
    _check_population(result, seed)
    return result


# -- reprice -----------------------------------------------------------------


def _reprice_setup(seed: int, chunk: int):
    from repro.contracts.columnar import SitePopulation
    from repro.survey.population import synthetic_load_matrix

    populations, setups = [], []
    for c in range(REPRICE_CHUNKS):
        t0 = time.perf_counter()
        loads, _ = synthetic_load_matrix(
            chunk, N_INTERVALS, INTERVAL_S, seed=seed, start_index=c * chunk
        )
        populations.append(SitePopulation(loads, INTERVAL_S))
        setups.append(time.perf_counter() - t0)
    return populations, setups


def _reprice_calls(populations: Sequence, rng: random.Random, seconds: float,
                   ledger=None):
    """Re-price the held populations under fresh archetype variants until the deadline.

    An op is one population settled under one variant's five contracts.
    Returns per-op ``(latencies, end times, totals)``.
    """
    from repro.analysis.population import population_archetypes, population_context
    from repro.contracts.billing import BillingEngine
    from repro.contracts.columnar import SitePopulation
    from repro.timeseries.calendar import monthly_billing_periods

    engine = BillingEngine()
    periods = monthly_billing_periods(start_s=0.0)
    context = population_context(N_INTERVALS, INTERVAL_S, 0)
    # untimed warm-up: lazy imports and calendar caches fill here
    small = SitePopulation(populations[0].loads_kw[:16], INTERVAL_S)
    for contract in population_archetypes(INTERVAL_S):
        engine.bill_population(small, contract, periods, context)
    latencies: List[float] = []
    ends: List[float] = []
    totals: List[float] = []
    deadline = Deadline(seconds)
    while not latencies or not deadline.over():
        contracts = population_archetypes(INTERVAL_S, peak_kw=rng.uniform(5e3, 25e3))
        for population in populations:
            t0 = time.perf_counter()
            for contract in contracts:
                if ledger is None:
                    bills = engine.bill_population(population, contract, periods, context)
                else:
                    with ledger.unit(len(totals)):
                        bills = engine.bill_population(
                            population, contract, periods, context
                        )
                totals.append(float(bills.totals().sum()))
            ends.append(time.perf_counter())
            latencies.append(ends[-1] - t0)
    return latencies, ends, totals


def measure_reprice(seed: int, seconds: float, trace: bool, scale: float) -> RunResult:
    from repro.analysis.population import population_archetypes, population_context

    chunk = max(16, int(round(CHUNK * scale)))
    populations, setups = _reprice_setup(seed, chunk)
    n_contracts = len(population_archetypes(INTERVAL_S))
    rng = random.Random(seed)
    result = RunResult()
    if trace:
        untraced, _, _ = _reprice_calls(populations, rng, seconds / 3)
        ledger = Ledger(seed=seed)
        install_billing(ledger)
        try:
            traced, _, totals = _reprice_calls(
                populations, rng, 2 * seconds / 3, ledger
            )
        finally:
            ledger.uninstall()
        snap = ledger.snapshot()
        e2e = sum(traced)
        result.per_layer = billing_layers(snap, e2e)
        result.notes["ledger"] = {k: snap[k] for k in ("total_s", "self_s", "calls")}
        result.notes["spans"] = ledger.span_records()
        result.per_layer["trace_overhead_frac"] = (e2e / len(traced)) / (
            sum(untraced) / len(untraced)
        ) - 1.0
        result.check(
            "no_generation_in_timed_part",
            snap["calls"].get("survey.population.synthetic_load_matrix", 0) == 0,
        )
        result.check(
            "valid.unattributed_frac", result.per_layer["unattributed_frac"] <= MAX_UNATTRIBUTED
        )
        n_ops = len(untraced) + len(traced)
    else:
        latencies, ends, totals = _reprice_calls(populations, rng, seconds)
        result.end_to_end = {
            "throughput": windowed_rate(
                latencies, [chunk * n_contracts] * len(latencies), 1.0
            ),
            "latency_p50_ms": windowed_percentile(ends, latencies, 50, 2.0) * 1e3,
            "latency_p99_ms": windowed_percentile(ends, latencies, 99, 2.0) * 1e3,
            "setup_s": median(setups),
            "peak_rss_mb": peak_rss_mb(),
        }
        n_ops = len(latencies)
        result.notes["latency_samples"] = n_ops
    # attempted counts (chunk, contract) settles
    result.attempted = n_contracts * n_ops
    result.check("totals_finite", all(np.isfinite(totals)))
    variant = population_archetypes(INTERVAL_S, peak_kw=random.Random(seed).uniform(5e3, 25e3))
    result.check(
        "columnar_matches_scalar",
        columnar_matches_scalar(
            populations[0].loads_kw[:CHECK_SITES], variant,
            population_context(N_INTERVALS, INTERVAL_S, 0),
        ),
    )
    result.notes["chunk_sites"] = chunk
    return result
