"""The chaos harness: sweep fault intensities across an ESP↔SC simulation.

This is the layer's integration surface.  One scenario runs the whole
story end-to-end under injected faults:

1. an ESP (supply stack + system load) dispatches emergency events when
   reserves breach the §3.2.3 threshold;
2. the dispatch signals cross a lossy, latent channel
   (:mod:`~repro.robustness.delivery`) — late arrivals degrade the SC's
   curtailment via checkpoint ramp physics, misses land in the dead-letter
   log with their penalty exposure;
3. the SC's *actual* (post-response) load is metered through a fault
   injector (:mod:`~repro.robustness.faults`), VEE-estimated
   (:mod:`~repro.robustness.vee`), billed as an estimated bill, and trued
   up against corrected data (:meth:`BillingEngine.reconcile`);
4. the harness asserts the layer's invariants — nothing crashed, the
   estimated bill's error is bounded, and signal accounting is conserved
   (dispatched = delivered + dead-lettered, with every dead letter
   penalty-stamped).

:func:`run_chaos_sweep` grids fault intensities into a
:class:`DegradationReport` — the "how hard can you hit it before the
numbers stop being trustworthy" table.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import threading
import time as _time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import perfconfig
from ..analysis.scenarios import synthetic_sc_load
from ..analysis.sweep import sweep_map
from ..contracts import (
    BillingContext,
    BillingEngine,
    Contract,
    DemandCharge,
    EmergencyDRObligation,
    FixedTariff,
    Reconciliation,
)
from ..dr import CostModel, DRController, LoadShedStrategy
from ..exceptions import RobustnessError
from ..observability import manifest as _manifest
from ..observability import metrics as _metrics
from ..observability import trace as _trace
from ..facility import CheckpointModel, Supercomputer
from ..grid import ESP, Generator, GridLoadModel, SupplyStack
from ..timeseries.calendar import BillingPeriod
from ..timeseries.series import PowerSeries
from .delivery import DeadLetter, DeliveryOutcome, DeliveryPolicy, LossySignalChannel
from .faults import FaultInjector, FaultSpec
from .vee import EstimationMethod, VEEngine

__all__ = [
    "ChaosScenario",
    "ChaosRunResult",
    "DegradationReport",
    "run_scenario",
    "run_chaos_sweep",
    "chaos_grid",
]

DAY_S = 86_400.0


@dataclass(frozen=True)
class ChaosScenario:
    """One point in the fault-intensity grid.

    Beyond the metering / signal-channel intensities, two *runtime*
    fault modes exercise the supervised sweep executor itself:

    ``slow_s``
        Sleep this many seconds before the scenario's real work — a
        hung-worker stand-in that a
        :class:`~repro.robustness.supervisor.RetryPolicy` per-item
        timeout should reap.
    ``kill_marker``
        Path of a marker file.  The first scenario to run while the
        marker does not exist creates it atomically and then kills its
        own worker process (``os._exit``), breaking the pool exactly
        once; on the serial path it raises
        :class:`~repro.exceptions.RobustnessError` instead.  Because the
        marker persists, retries and pool rebuilds proceed cleanly — the
        fault is a one-shot crash, not a poison item.
    """

    name: str
    dropout_rate: float = 0.0
    stuck_rate: float = 0.0
    spike_rate: float = 0.0
    signal_loss_probability: float = 0.0
    seed: int = 0
    slow_s: float = 0.0
    kill_marker: Optional[str] = None

    def fault_spec(self) -> FaultSpec:
        """The metering fault model this scenario injects."""
        return FaultSpec(
            dropout_rate=self.dropout_rate,
            stuck_rate=self.stuck_rate,
            spike_rate=self.spike_rate,
        )


def _apply_runtime_faults(scenario: ChaosScenario) -> None:
    """Fire the scenario's runtime fault modes (slow item, worker kill).

    The kill marker is created with ``O_CREAT | O_EXCL`` so exactly one
    process fires the crash no matter how many workers, retries or
    resumed runs race past it.
    """
    if scenario.slow_s > 0.0:
        _time.sleep(scenario.slow_s)
    if scenario.kill_marker:
        try:
            fd = os.open(
                scenario.kill_marker,
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            return  # the one-shot crash already happened
        os.close(fd)
        if multiprocessing.parent_process() is not None:
            # Worker process: die hard, taking the pool with us — the
            # supervisor must rebuild and re-dispatch unfinished items.
            os._exit(137)
        raise RobustnessError(
            f"chaos kill fault fired (marker {scenario.kill_marker!r} "
            "created); the retry will run clean"
        )


@dataclass(frozen=True)
class ChaosRunResult:
    """Everything one scenario produced, plus its invariant verdicts."""

    scenario: ChaosScenario
    true_total: float
    estimated_total: float
    bill_error_fraction: float
    n_dispatched: int
    n_delivered: int
    n_dead_letter: int
    n_degraded: int
    dead_letter_penalty: float
    billed_noncompliance: float
    invariants: Dict[str, bool] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every invariant held."""
        return all(self.invariants.values())

    def failed_invariants(self) -> List[str]:
        """Names of the invariants that failed."""
        return [name for name, held in self.invariants.items() if not held]


class DegradationReport:
    """The sweep's output: per-scenario results and a renderable table.

    A supervised sweep (``run_chaos_sweep(supervised=True, ...)``) also
    carries ``quarantined`` — scenario points that exhausted their retry
    budget, as :class:`~repro.robustness.supervisor.QuarantinedItem`
    entries — and ``recovery``, the supervisor's JSON-safe recovery
    summary (retries, timeouts, pool rebuilds, resumes).  Both are empty
    on the plain path.
    """

    def __init__(
        self,
        results: Sequence[ChaosRunResult],
        quarantined: Sequence = (),
        recovery: Optional[Dict[str, Any]] = None,
    ) -> None:
        if not results and not quarantined:
            raise RobustnessError("a degradation report requires results")
        self.results: List[ChaosRunResult] = list(results)
        self.quarantined = tuple(quarantined)
        self.recovery: Dict[str, Any] = dict(recovery or {})

    @property
    def all_ok(self) -> bool:
        """True when every scenario held every invariant and none was quarantined."""
        return all(r.ok for r in self.results) and not self.quarantined

    @property
    def worst_bill_error(self) -> float:
        """Largest estimated-bill error across the completed scenarios."""
        if not self.results:
            raise RobustnessError("no completed scenarios (all quarantined)")
        return max(r.bill_error_fraction for r in self.results)

    def assert_invariants(self) -> None:
        """Raise :class:`RobustnessError` naming every failed invariant.

        Quarantined scenario points count as failures: an unfinished
        point cannot vouch for its invariants.
        """
        failures = [
            f"{r.scenario.name}: {', '.join(r.failed_invariants())}"
            for r in self.results
            if not r.ok
        ]
        failures += [
            f"quarantined item {q.index}: {q.reason}" for q in self.quarantined
        ]
        if failures:
            raise RobustnessError(
                "chaos invariants violated — " + "; ".join(failures)
            )

    def to_markdown(self) -> str:
        """The degradation table as GitHub-flavored markdown."""
        lines = [
            "| scenario | dropout | loss | bill error | dispatched | "
            "delivered | dead | degraded | penalty exposure | ok |",
            "|---|---|---|---|---|---|---|---|---|---|",
        ]
        for r in self.results:
            lines.append(
                f"| {r.scenario.name} "
                f"| {r.scenario.dropout_rate:.1%} "
                f"| {r.scenario.signal_loss_probability:.0%} "
                f"| {r.bill_error_fraction:.2%} "
                f"| {r.n_dispatched} | {r.n_delivered} | {r.n_dead_letter} "
                f"| {r.n_degraded} "
                f"| {r.dead_letter_penalty:,.0f} "
                f"| {'yes' if r.ok else 'NO: ' + ','.join(r.failed_invariants())} |"
            )
        return "\n".join(lines)


# -- world construction ---------------------------------------------------------


def _build_esp(horizon_days: int, seed: int) -> Tuple[ESP, PowerSeries]:
    """An ESP whose reserves get tight enough to dispatch emergencies."""
    system_model = GridLoadModel(base_kw=800_000.0, diurnal_amplitude=0.25)
    probe = system_model.generate(horizon_days * 24, 3600.0, 0.0, seed)
    peak = probe.max_kw()
    # capacity slightly above the realized peak: the top diurnal swings
    # breach the 3 % emergency threshold, the rest of the day does not.
    stack = SupplyStack(
        [
            Generator("baseload", 0.7 * peak * 1.02, 0.03),
            Generator("mid-merit", 0.2 * peak * 1.02, 0.07),
            Generator("peaker", 0.1 * peak * 1.02, 0.22),
        ]
    )
    esp = ESP("chaos ESP", stack, system_model)
    system_load = esp.simulate_system(horizon_days * 24, 3600.0, 0.0, seed)["load"]
    return esp, system_load


def _build_facility(peak_mw: float) -> Tuple[DRController, Contract]:
    """The (controller, contract) pair for one facility size.

    Cached per ``peak_mw``: the controller's strategy/cost/checkpoint
    models are pure (no response state survives a call) and the contract's
    only mutable element, the demand-charge ratchet, is reset at the start
    of every settlement — so every scenario of a sweep can share one
    facility.  A stable contract object is also what lets the settlement
    memo on :class:`~repro.contracts.settlement.SettlementPlan` recognise
    the chaos true-up cycle's repeat settlements.
    """
    observed = perfconfig.observability_enabled()
    key = float(peak_mw)
    with _FACILITY_CACHE_LOCK:
        cached = _FACILITY_CACHE.get(key)
    if cached is not None:
        if observed:
            _metrics.inc("chaos.facility_cache.hit")
        return cached
    if observed:
        _metrics.inc("chaos.facility_cache.miss")
    machine = Supercomputer("chaos SC", n_nodes=4000)
    controller = DRController(
        machine=machine,
        cost_model=CostModel(machine_capex=1.5e8),
        strategy=LoadShedStrategy(floor_kw=0.3 * peak_mw * 1000.0),
        checkpoint_model=CheckpointModel(),
    )
    contract = Contract(
        "chaos SC / robustness study",
        [
            FixedTariff(0.07),
            DemandCharge(12.0),
            EmergencyDRObligation(noncompliance_penalty_per_kwh=0.5),
        ],
    )
    facility = (controller, contract)
    with _FACILITY_CACHE_LOCK:
        if len(_FACILITY_CACHE) >= _FACILITY_CACHE_MAX:
            _FACILITY_CACHE.clear()
        _FACILITY_CACHE[key] = facility
    return facility


def _weekly_periods(horizon_days: int) -> List[BillingPeriod]:
    n_weeks = max(horizon_days // 7, 1)
    return [
        BillingPeriod(f"week {w + 1}", w * 7 * DAY_S, (w + 1) * 7 * DAY_S)
        for w in range(n_weeks)
    ]


# -- the world cache -------------------------------------------------------------
#
# A chaos sweep grids *fault* intensities while holding the world fixed:
# every point with the same (horizon_days, peak_mw, seed) rebuilds the same
# ESP, simulates the same system load, draws the same SC load and gets the
# same emergency dispatches.  Memoizing that tuple turns the 9-point default
# sweep's 9 world constructions into 1.  ``esp.dispatch_events`` does not
# mutate the ESP and every cached object is treated as immutable downstream,
# so sharing is safe; :func:`repro.perfconfig.clear_caches` empties it.

_WORLD_CACHE: Dict[Tuple[int, float, int], Tuple] = {}
_WORLD_CACHE_LOCK = threading.Lock()
_WORLD_CACHE_MAX = 8

# (world key, delivered-outcome signature) -> (post-response load, n_degraded).
# The DR response chain is a pure function of the world's SC load, the
# facility (deterministic per peak_mw) and the delivered outcomes; grid
# points whose delivery outcomes coincide — e.g. every zero-signal-loss
# scenario of a sweep, whatever its metering-fault intensities — replay an
# identical chain, so it is memoized alongside the world.
_RESPONSE_CACHE: Dict[Tuple, Tuple[PowerSeries, int]] = {}
_RESPONSE_CACHE_LOCK = threading.Lock()
_RESPONSE_CACHE_MAX = 32

# peak_mw -> (DRController, Contract).  See :func:`_build_facility`.
_FACILITY_CACHE: Dict[float, Tuple[DRController, Contract]] = {}
_FACILITY_CACHE_LOCK = threading.Lock()
_FACILITY_CACHE_MAX = 8


def _clear_world_cache() -> None:
    with _WORLD_CACHE_LOCK:
        _WORLD_CACHE.clear()
    with _RESPONSE_CACHE_LOCK:
        _RESPONSE_CACHE.clear()
    with _FACILITY_CACHE_LOCK:
        _FACILITY_CACHE.clear()


perfconfig.register_cache_clearer(_clear_world_cache)


def _build_world(horizon_days: int, peak_mw: float, seed: int) -> Tuple:
    """(esp, sc_load, baseline_kw, emergencies) for one world tuple."""
    key = (int(horizon_days), float(peak_mw), int(seed))
    observed = perfconfig.observability_enabled()
    with _WORLD_CACHE_LOCK:
        world = _WORLD_CACHE.get(key)
    if world is not None:
        if observed:
            _metrics.inc("chaos.world_cache.hit")
        return world
    if observed:
        _metrics.inc("chaos.world_cache.miss")
    horizon_s = horizon_days * DAY_S
    esp, system_load = _build_esp(horizon_days, seed)
    sc_load = synthetic_sc_load(
        peak_mw, n_days=horizon_days, interval_s=900.0, seed=seed
    )
    baseline_kw = sc_load.mean_kw()
    dispatched = esp.dispatch_events(system_load, customer_baseline_kw=baseline_kw)
    emergencies = tuple(
        e for e in dispatched["emergency"] if e.end_s <= horizon_s and e.start_s >= 0
    )
    world = (esp, sc_load, baseline_kw, emergencies)
    with _WORLD_CACHE_LOCK:
        if len(_WORLD_CACHE) >= _WORLD_CACHE_MAX:
            _WORLD_CACHE.clear()
        _WORLD_CACHE[key] = world
    return world


# -- the scenario runner ----------------------------------------------------------


def run_scenario(
    scenario: ChaosScenario,
    horizon_days: int = 28,
    peak_mw: float = 8.0,
    bill_error_tolerance: float = 0.03,
    estimation_method: EstimationMethod = EstimationMethod.LINEAR_INTERPOLATION,
    delivery_policy: Optional[DeliveryPolicy] = None,
) -> ChaosRunResult:
    """Run one fault-intensity point end-to-end.

    ``bill_error_tolerance`` is a dimensionless relative-error fraction in
    [0, 1] parameterizing the bounded-error invariant; the acceptance
    figure (estimated bills within 3 % of fault-free at ≤ 5 % dropout)
    uses the default.

    Observability (when enabled): the point runs inside a
    ``chaos.scenario`` span — the billing engine's ``settle`` spans nest
    under it — and reports signal-accounting counters
    (``chaos.signals.*``), degradation counts and the per-layer cache
    hit/miss counters (``chaos.world_cache.*`` etc.).
    """
    if not perfconfig.observability_enabled():
        return _run_scenario_impl(
            scenario,
            horizon_days,
            peak_mw,
            bill_error_tolerance,
            estimation_method,
            delivery_policy,
        )
    with _trace.span("chaos.scenario", scenario=scenario.name, seed=scenario.seed):
        result = _run_scenario_impl(
            scenario,
            horizon_days,
            peak_mw,
            bill_error_tolerance,
            estimation_method,
            delivery_policy,
        )
    _metrics.inc("chaos.scenarios")
    _metrics.inc("chaos.signals.dispatched", result.n_dispatched)
    _metrics.inc("chaos.signals.delivered", result.n_delivered)
    _metrics.inc("chaos.signals.dead_letter", result.n_dead_letter)
    _metrics.inc("chaos.responses.degraded", result.n_degraded)
    _trace.emit(
        "chaos.scenario_done",
        scenario=scenario.name,
        ok=result.ok,
        bill_error_fraction=result.bill_error_fraction,
    )
    return result


def _run_scenario_impl(
    scenario: ChaosScenario,
    horizon_days: int = 28,
    peak_mw: float = 8.0,
    bill_error_tolerance: float = 0.03,
    estimation_method: EstimationMethod = EstimationMethod.LINEAR_INTERPOLATION,
    delivery_policy: Optional[DeliveryPolicy] = None,
) -> ChaosRunResult:
    """The body of :func:`run_scenario` (wrapped by its observability shim)."""
    _apply_runtime_faults(scenario)
    if horizon_days < 7:
        raise RobustnessError("the chaos harness needs at least one billing week")
    horizon_days = (horizon_days // 7) * 7  # whole billing weeks

    # 1. the world (ESP + system load + SC load + dispatches; cached per
    #    (horizon, peak, seed) — fault intensities never change the world)
    esp, sc_load, baseline_kw, emergencies = _build_world(
        horizon_days, peak_mw, scenario.seed
    )
    controller, contract = _build_facility(peak_mw)
    emergencies = list(emergencies)

    # 2./3. lossy delivery + graceful degradation
    policy = delivery_policy or DeliveryPolicy(
        loss_probability=scenario.signal_loss_probability
    )
    channel = LossySignalChannel(policy, seed=scenario.seed)
    delivered, dead = channel.transmit_all(emergencies)
    penalty_component = next(
        c for c in contract.components if isinstance(c, EmergencyDRObligation)
    )
    dead_penalty = channel.assess_dead_letter_penalties(
        baseline_kw=baseline_kw,
        penalty_per_kwh=penalty_component.noncompliance_penalty_per_kwh,
    )
    response_key = (
        (int(horizon_days), float(peak_mw), int(scenario.seed)),
        tuple(
            (o.event.start_s, o.event.end_s, o.event.limit_kw, o.remaining_notice_s)
            for o in delivered
        ),
    )
    with _RESPONSE_CACHE_LOCK:
        cached_response = _RESPONSE_CACHE.get(response_key)
    if perfconfig.observability_enabled():
        _metrics.inc(
            "chaos.response_cache.hit"
            if cached_response is not None
            else "chaos.response_cache.miss"
        )
    if cached_response is not None:
        actual_load, n_degraded = cached_response
    else:
        actual_load = sc_load
        n_degraded = 0
        for outcome in delivered:
            response = controller.respond_emergency(
                actual_load, outcome.event, remaining_notice_s=outcome.remaining_notice_s
            )
            if response.response is not None:
                actual_load = response.response.modified
            n_degraded += int(response.degraded)
        with _RESPONSE_CACHE_LOCK:
            if len(_RESPONSE_CACHE) >= _RESPONSE_CACHE_MAX:
                _RESPONSE_CACHE.clear()
            _RESPONSE_CACHE[response_key] = (actual_load, n_degraded)

    # 4. imperfect metering → VEE → estimated bill → true-up
    injector = FaultInjector(scenario.fault_spec(), seed=scenario.seed)
    faulted = injector.inject(actual_load)
    # The injector plays the meter head end and pre-flags every corrupted
    # interval, so the robust-z screen is disabled here: SC loads contain
    # legitimate extremes (benchmarks, maintenance) that a generic screen
    # would false-positive into estimates, breaking the zero-fault
    # idempotence invariant (estimated bill == true bill at intensity 0).
    estimated = VEEngine(method=estimation_method, outlier_z=None).estimate(faulted)
    engine = BillingEngine()
    periods = _weekly_periods(horizon_days)
    context = BillingContext(
        emergency_calls=tuple(e.as_contract_call() for e in emergencies)
    )
    estimated_bill = engine.bill(
        contract,
        estimated.series,
        periods,
        context,
        estimated=True,
        data_quality=estimated.data_quality(),
    )
    reconciliation: Reconciliation = engine.reconcile(
        contract, estimated_bill, actual_load, context
    )
    true_bill = reconciliation.true_bill
    billed_noncompliance = max(
        true_bill.component_total(penalty_component.name), 0.0
    )

    # 5. invariants
    invariants = {
        "accounting_conserved": channel.accounting_conserved(len(emergencies)),
        "bill_error_bounded": reconciliation.within_tolerance(bill_error_tolerance),
        "dead_letters_penalized": all(
            d.penalty_exposure > 0.0 or baseline_kw <= d.event.limit_kw
            for d in channel.dead_letters
        ),
        "penalties_non_negative": billed_noncompliance >= 0.0
        and dead_penalty >= 0.0,
        "true_bill_positive": true_bill.total > 0.0,
    }
    return ChaosRunResult(
        scenario=scenario,
        true_total=true_bill.total,
        estimated_total=estimated_bill.total,
        bill_error_fraction=reconciliation.absolute_error_fraction,
        n_dispatched=len(emergencies),
        n_delivered=len(delivered),
        n_dead_letter=len(dead),
        n_degraded=n_degraded,
        dead_letter_penalty=dead_penalty,
        billed_noncompliance=billed_noncompliance,
        invariants=invariants,
    )


def chaos_grid(
    params: Dict[str, Any],
) -> Tuple[List[ChaosScenario], Callable[[ChaosScenario], ChaosRunResult]]:
    """Rebuild a chaos sweep's grid and point function from its recipe.

    ``params`` is the recipe dict :func:`run_chaos_sweep` stores in
    journal headers and sharded-sweep manifests (``dropout_rates``,
    ``loss_probabilities``, ``seed``, ``horizon_days``, ``peak_mw``,
    ``bill_error_tolerance``, ``slow_s``, ``kill_marker``).  Any other
    key is ignored: ``kind``, and the settlement-path and world-cache
    switches that recipes carried before those knobs were removed, so
    older journals and sweep directories still resume.  Scenario
    order is the grid's row-major order — dropout outer, loss inner —
    so a rebuilt grid fingerprints identically to the original, which
    is what lets ``python -m repro sweep --fabric DIR --worker``
    attach to a sweep directory from the manifest alone.

    >>> grid, point_fn = chaos_grid({
    ...     "dropout_rates": [0.0, 0.01], "loss_probabilities": [0.1]})
    >>> [s.name for s in grid]
    ['dropout=0%, loss=10%', 'dropout=1%, loss=10%']
    """
    p = params
    seed = int(p.get("seed", 0))
    scenarios = [
        ChaosScenario(
            name=f"dropout={dropout:.0%}, loss={loss:.0%}",
            dropout_rate=float(dropout),
            signal_loss_probability=float(loss),
            seed=seed,
            slow_s=float(p.get("slow_s", 0.0)),
            kill_marker=p.get("kill_marker"),
        )
        for dropout in p.get("dropout_rates", (0.0, 0.01, 0.05))
        for loss in p.get("loss_probabilities", (0.0, 0.1, 0.2))
    ]
    point_fn = functools.partial(
        run_scenario,
        horizon_days=int(p.get("horizon_days", 28)),
        peak_mw=float(p.get("peak_mw", 8.0)),
        bill_error_tolerance=float(p.get("bill_error_tolerance", 0.03)),
    )
    return scenarios, point_fn


def run_chaos_sweep(
    dropout_rates: Sequence[float] = (0.0, 0.01, 0.05),
    loss_probabilities: Sequence[float] = (0.0, 0.1, 0.2),
    seed: int = 0,
    horizon_days: int = 28,
    peak_mw: float = 8.0,
    bill_error_tolerance: float = 0.03,
    parallel: Optional[bool] = None,
    supervised: bool = False,
    retry=None,
    journal: Optional[str] = None,
    slow_s: float = 0.0,
    kill_marker: Optional[str] = None,
) -> DegradationReport:
    """Grid the fault intensities and collect the degradation report.

    ``bill_error_tolerance`` is a dimensionless relative-error fraction in
    [0, 1] forwarded to each scenario point (see :func:`run_scenario`).
    Scenario points are independent and self-seeded, so the grid runs
    through :func:`~repro.analysis.sweep.sweep_map` (``parallel`` is
    forwarded); results arrive in grid order either way.  All points of
    one sweep share a single cached world construction.

    ``supervised`` / ``retry`` / ``journal`` route the grid through the
    resilient :class:`~repro.robustness.supervisor.SweepSupervisor`
    runtime (same executor behind ``sweep_map(supervised=True)``, kept
    explicit here so the report can carry quarantine and recovery
    provenance): per-item timeouts, capped-backoff retries, broken-pool
    recovery, and — with ``journal`` — a durable checkpoint that resumes
    an interrupted sweep bit-identically.  The journal header stores the
    full grid recipe, so ``python -m repro sweep --resume <journal>``
    can finish the sweep without re-specifying it.  ``slow_s`` and
    ``kill_marker`` arm the runtime fault modes on every scenario (see
    :class:`ChaosScenario`) to exercise exactly that machinery.

    Observability (when enabled): the sweep emits a ``chaos_sweep``
    :class:`~repro.observability.manifest.RunManifest` carrying the grid
    parameters, the seed, and a payload with per-scenario verdicts, the
    worst bill error and — for supervised runs — the supervisor's
    recovery summary and quarantine count (readable via
    :func:`repro.observability.manifest.last_manifest`).
    """
    recipe = {
        "dropout_rates": [float(d) for d in dropout_rates],
        "loss_probabilities": [float(p) for p in loss_probabilities],
        "seed": int(seed),
        "horizon_days": int(horizon_days),
        "peak_mw": float(peak_mw),
        "bill_error_tolerance": float(bill_error_tolerance),
        "slow_s": float(slow_s),
        "kill_marker": kill_marker,
    }
    scenarios, point_fn = chaos_grid(recipe)
    observed = perfconfig.observability_enabled()
    wall0 = _time.perf_counter() if observed else 0.0
    cpu0 = _time.process_time() if observed else 0.0
    sweep_report = None
    if supervised or retry is not None or journal is not None:
        from .supervisor import SweepSupervisor

        supervisor = SweepSupervisor(
            retry,
            parallel=parallel,
            journal=journal,
            sweep_id="chaos_sweep",
            journal_params={"kind": "chaos_sweep", **recipe},
        )
        sweep_report = supervisor.run(point_fn, scenarios)
        results = [r for r in sweep_report.results if r is not None]
    else:
        results = sweep_map(point_fn, scenarios, parallel=parallel)
    report = DegradationReport(
        results,
        quarantined=() if sweep_report is None else sweep_report.quarantined,
        recovery=None if sweep_report is None else sweep_report.recovery_summary(),
    )
    if observed:
        _manifest.record(
            _manifest.RunManifest(
                kind="chaos_sweep",
                name=f"{len(scenarios)}-point degradation sweep",
                created_unix=_time.time(),
                wall_s=_time.perf_counter() - wall0,
                cpu_s=_time.process_time() - cpu0,
                seeds={"world": int(seed)},
                params={
                    "dropout_rates": list(dropout_rates),
                    "loss_probabilities": list(loss_probabilities),
                    "horizon_days": int(horizon_days),
                    "peak_mw": float(peak_mw),
                    "bill_error_tolerance": float(bill_error_tolerance),
                },
                metrics=_metrics.registry().snapshot(),
                payload={
                    "all_ok": report.all_ok,
                    "worst_bill_error": (
                        report.worst_bill_error if report.results else None
                    ),
                    "recovery": report.recovery or None,
                    "n_quarantined": len(report.quarantined),
                    "scenarios": [
                        {
                            "name": r.scenario.name,
                            "ok": r.ok,
                            "bill_error_fraction": r.bill_error_fraction,
                            "n_dead_letter": r.n_dead_letter,
                        }
                        for r in report.results
                    ],
                },
            )
        )
    return report
