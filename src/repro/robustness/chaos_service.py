"""Chaos-serve: drive the pricing service through a faulty wire, prove invariants.

:mod:`~repro.robustness.chaos` attacks the *data* plane (metering faults,
lossy dispatch); this module attacks the *serving* plane.  One scenario
stands up a real :class:`~repro.service.server.ContractPricingServer`,
puts a seeded :class:`~repro.robustness.netfaults.FaultyProxy` in front
of it, and fires a concurrent stream of pricing requests through a pool
of :class:`~repro.service.resilience.SelfHealingClient` connections (one
per concurrency slot, so the per-connection fault law is actually
sampled).  The harness then asserts the serving invariants:

* **terminal accounting** — every request reaches exactly one terminal
  outcome: answered, rejected (structured admission error) or failed
  (retry budget exhausted).  ``n_requests == n_answered + n_rejected +
  n_failed`` (:meth:`ServiceChaosResult.accounted`).
* **byte-identical answers** — every answered ``price`` response,
  canonically encoded, equals the direct
  :meth:`~repro.service.catalog.ServiceCatalog.price` call: retries and
  idempotent replays never change a settled number.
* **admission conservation** — the server's own accounting closes with
  zero leaked tickets after the chaos (``n_admitted == n_completed +
  n_timed_out + n_cancelled``, ``pending == 0``).
* **graceful drain** — ``server.stop()`` returns a conserved
  :class:`~repro.service.resilience.DrainReport`.

:func:`run_service_chaos` grids fault mode × fault rate into a
:class:`ServiceChaosReport`; like the data-plane sweep it runs through
:func:`~repro.analysis.sweep.sweep_map` and supports the supervised /
journaled / resumable runtime (``kind: service_chaos`` recipes).
"""

from __future__ import annotations

import asyncio
import functools
import json
import sys as _sys
import time as _time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import perfconfig
from ..analysis.sweep import sweep_map
from ..exceptions import AdmissionError, RobustnessError, ServiceError
from ..observability import manifest as _manifest
from ..observability import metrics as _metrics
from .netfaults import FAULT_MODES, FaultyProxy, WireFaultSpec
from .supervisor import RetryPolicy

__all__ = [
    "ServiceChaosScenario",
    "ServiceChaosResult",
    "ServiceChaosReport",
    "run_service_scenario",
    "run_service_chaos",
    "service_chaos_grid",
]


@dataclass(frozen=True)
class ServiceChaosScenario:
    """One point of the chaos-serve grid: a fault mode at an intensity.

    ``fault_mode`` is one of the :data:`~repro.robustness.netfaults.FAULT_MODES`
    (``clean`` = passthrough baseline); ``fault_rate`` is the
    per-connection probability of that fault; ``concurrency`` bounds the
    simultaneous in-flight requests; ``retry_attempts`` is the
    self-healing client's budget (generous by default so moderate fault
    rates still terminate every request as *answered*).

    >>> s = ServiceChaosScenario("tear @ 30%", fault_mode="tear", fault_rate=0.3)
    >>> s.wire_spec().tear_rate
    0.3
    """

    name: str
    fault_mode: str = "clean"
    fault_rate: float = 0.0
    concurrency: int = 4
    n_requests: int = 24
    seed: int = 0
    retry_attempts: int = 12
    delay_s: float = 0.002
    trickle_bytes: int = 16

    def __post_init__(self) -> None:
        if self.fault_mode not in FAULT_MODES:
            raise RobustnessError(
                f"unknown fault mode {self.fault_mode!r}; known: {FAULT_MODES}"
            )
        if not 0.0 <= self.fault_rate <= 1.0:
            raise RobustnessError("fault_rate must be in [0, 1]")
        if self.fault_mode == "clean" and self.fault_rate != 0.0:
            raise RobustnessError("mode 'clean' requires fault_rate == 0")
        if self.concurrency < 1:
            raise RobustnessError("concurrency must be >= 1")
        if self.n_requests < 1:
            raise RobustnessError("n_requests must be >= 1")
        if self.retry_attempts < 1:
            raise RobustnessError("retry_attempts must be >= 1")

    def wire_spec(self) -> WireFaultSpec:
        """The :class:`~repro.robustness.netfaults.WireFaultSpec` this
        scenario arms the proxy with."""
        rates = {
            f"{self.fault_mode}_rate": self.fault_rate
        } if self.fault_mode != "clean" else {}
        return WireFaultSpec(
            delay_s=self.delay_s, trickle_bytes=self.trickle_bytes, **rates
        )


@dataclass(frozen=True)
class ServiceChaosResult:
    """One scenario's terminal outcomes, wire counters and verdicts.

    >>> r = ServiceChaosResult(
    ...     scenario=ServiceChaosScenario("clean"), n_requests=4,
    ...     n_answered=4, n_rejected=0, n_failed=0, n_reconnects=0,
    ...     n_retries=0, n_replayed=0, invariants={"all_answered": True})
    >>> r.accounted(), r.ok, r.failed_invariants()
    (True, True, [])
    """

    scenario: ServiceChaosScenario
    n_requests: int
    n_answered: int
    n_rejected: int
    n_failed: int
    n_reconnects: int
    n_retries: int
    n_replayed: int
    wire: Dict[str, int] = field(default_factory=dict)
    drain: Dict[str, object] = field(default_factory=dict)
    invariants: Dict[str, bool] = field(default_factory=dict)

    def accounted(self) -> bool:
        """Terminal-outcome conservation: every request ended exactly once."""
        return self.n_requests == self.n_answered + self.n_rejected + self.n_failed

    @property
    def ok(self) -> bool:
        """True when every invariant held."""
        return all(self.invariants.values())

    def failed_invariants(self) -> List[str]:
        """Names of the invariants that failed."""
        return [name for name, held in self.invariants.items() if not held]


class ServiceChaosReport:
    """The chaos-serve grid's output: per-scenario results plus a table.

    Mirrors :class:`~repro.robustness.chaos.DegradationReport`: supervised
    runs also carry ``quarantined`` points and the supervisor's
    ``recovery`` summary (both empty on the plain path).

    >>> r = ServiceChaosResult(
    ...     scenario=ServiceChaosScenario("clean"), n_requests=2,
    ...     n_answered=2, n_rejected=0, n_failed=0, n_reconnects=0,
    ...     n_retries=0, n_replayed=0, invariants={"byte_identical": True})
    >>> report = ServiceChaosReport([r])
    >>> report.all_ok
    True
    >>> report.to_markdown().splitlines()[2]
    '| clean | clean | 0% | 2/2 | 0 | 0 | 0 | 0 | yes |'
    """

    def __init__(
        self,
        results: Sequence[ServiceChaosResult],
        quarantined: Sequence = (),
        recovery: Optional[Dict[str, Any]] = None,
    ) -> None:
        if not results and not quarantined:
            raise RobustnessError("a service chaos report requires results")
        self.results: List[ServiceChaosResult] = list(results)
        self.quarantined = tuple(quarantined)
        self.recovery: Dict[str, Any] = dict(recovery or {})

    @property
    def all_ok(self) -> bool:
        """True when every scenario held every invariant, none quarantined."""
        return all(r.ok for r in self.results) and not self.quarantined

    def assert_invariants(self) -> None:
        """Raise :class:`RobustnessError` naming every failed invariant."""
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
                "service chaos invariants violated — " + "; ".join(failures)
            )

    def to_markdown(self) -> str:
        """The chaos-serve table as GitHub-flavored markdown."""
        lines = [
            "| scenario | mode | rate | answered | rejected | failed | "
            "reconnects | replays | ok |",
            "|---|---|---|---|---|---|---|---|---|",
        ]
        for r in self.results:
            lines.append(
                f"| {r.scenario.name} "
                f"| {r.scenario.fault_mode} "
                f"| {r.scenario.fault_rate:.0%} "
                f"| {r.n_answered}/{r.n_requests} "
                f"| {r.n_rejected} | {r.n_failed} "
                f"| {r.n_reconnects} | {r.n_replayed} "
                f"| {'yes' if r.ok else 'NO: ' + ','.join(r.failed_invariants())} |"
            )
        return "\n".join(lines)


# -- the scenario runner -------------------------------------------------------


def _canonical(result: object) -> bytes:
    """The canonical wire bytes of a result object (sorted-key JSON)."""
    return json.dumps(result, sort_keys=True).encode("utf-8")


def run_service_scenario(
    scenario: ServiceChaosScenario,
    n_sites: int = 2,
    days: int = 7,
    drain_s: float = 5.0,
) -> ServiceChaosResult:
    """Run one chaos-serve point end-to-end and judge its invariants.

    Builds a small default catalog, precomputes the *direct-engine*
    canonical bytes for every request in the mix, then serves the same
    mix through the faulty proxy and compares.  Admission is left
    unlimited so the terminal outcome of every request is deterministic
    per seed (faults are retried until a clean connection serves them;
    rejections only occur when a scenario deliberately constrains
    admission, which the grid does not).

    >>> result = run_service_scenario(
    ...     ServiceChaosScenario("clean", n_requests=2, concurrency=1),
    ...     n_sites=1)
    >>> result.accounted(), result.ok
    (True, True)
    """
    # late imports: repro.service imports repro.robustness (RetryPolicy),
    # so the module-level dependency must stay one-directional.
    from ..service.catalog import default_catalog, encode_bill
    from ..service.server import ContractPricingServer

    catalog = default_catalog(n_sites=n_sites, days=days, seed=scenario.seed)
    contracts = catalog.contract_names()
    loads = catalog.load_names()
    # the request mix: round-robin over contract × load pairs
    mix: List[Tuple[str, str]] = [
        (contracts[i % len(contracts)], loads[i % len(loads)])
        for i in range(scenario.n_requests)
    ]
    # the direct-call reference path, computed before any serving begins
    expected = {
        pair: _canonical(encode_bill(catalog.price(*pair)))
        for pair in set(mix)
    }

    async def drive() -> ServiceChaosResult:
        server = ContractPricingServer(catalog, drain_s=drain_s)
        await server.start()
        proxy = FaultyProxy(server.address, scenario.wire_spec(), seed=scenario.seed)
        await proxy.start()
        from ..service.resilience import SelfHealingClient

        # a *pool* of clients, one per concurrency slot: the proxy draws
        # its fault plan per connection, so a single shared connection
        # would sample the fault law exactly once per scenario — a seed
        # whose connection 0 happens to be clean would make every fault
        # rate vacuous.
        n_clients = min(scenario.concurrency, scenario.n_requests)
        clients = [
            SelfHealingClient(
                *proxy.address,
                retry=RetryPolicy(
                    max_attempts=scenario.retry_attempts,
                    base_backoff_s=0.005,
                    max_backoff_s=0.1,
                ),
                seed=scenario.seed + i,
            )
            for i in range(n_clients)
        ]
        gate = asyncio.Semaphore(scenario.concurrency)
        outcomes: List[Tuple[str, Tuple[str, str], Optional[bytes]]] = []

        async def one(i: int, pair: Tuple[str, str]) -> None:
            contract, load = pair
            async with gate:
                try:
                    result = await clients[i % n_clients].call(
                        "price", {"contract": contract, "load": load}
                    )
                    outcomes.append(("answered", pair, _canonical(result)))
                except AdmissionError:
                    outcomes.append(("rejected", pair, None))
                except (ServiceError, ConnectionError, OSError):
                    outcomes.append(("failed", pair, None))

        await asyncio.gather(*(one(i, pair) for i, pair in enumerate(mix)))
        for client in clients:
            await client.close()
        await proxy.stop()
        idem_stats = server.idempotency.stats()
        accounting = server.admission.accounting()
        report = await server.stop()

        n_answered = sum(1 for kind, _, _ in outcomes if kind == "answered")
        n_rejected = sum(1 for kind, _, _ in outcomes if kind == "rejected")
        n_failed = sum(1 for kind, _, _ in outcomes if kind == "failed")
        byte_identical = all(
            blob == expected[pair]
            for kind, pair, blob in outcomes
            if kind == "answered"
        )
        invariants = {
            "terminal_conserved": scenario.n_requests
            == n_answered + n_rejected + n_failed,
            "all_answered": n_answered == scenario.n_requests,
            "byte_identical": byte_identical,
            "admission_conserved": (
                accounting["n_admitted"]
                == accounting["n_completed"]
                + accounting["n_timed_out"]
                + accounting["n_cancelled"]
                and accounting["pending"] == 0
            ),
            "drain_conserved": report.conserved(),
        }
        return ServiceChaosResult(
            scenario=scenario,
            n_requests=scenario.n_requests,
            n_answered=n_answered,
            n_rejected=n_rejected,
            n_failed=n_failed,
            n_reconnects=sum(c.n_reconnects for c in clients),
            n_retries=sum(c.n_retries for c in clients),
            n_replayed=int(idem_stats["n_replayed"]),
            wire=proxy.report().to_dict(),
            drain=report.to_dict(),
            invariants=invariants,
        )

    result = asyncio.run(drive())
    if perfconfig.observability_enabled():
        _metrics.inc("chaos.service.scenarios")
        _metrics.inc("chaos.service.answered", result.n_answered)
        _metrics.inc("chaos.service.failed", result.n_failed)
        _metrics.inc("chaos.service.reconnects", result.n_reconnects)
    return result


# -- the grid ------------------------------------------------------------------


def service_chaos_grid(
    params: Dict[str, Any],
) -> Tuple[
    List[ServiceChaosScenario],
    Callable[[ServiceChaosScenario], ServiceChaosResult],
]:
    """Rebuild a chaos-serve grid and point function from its recipe.

    ``params`` is the recipe dict :func:`run_service_chaos` stores in
    journal headers (``modes``, ``rates``, ``concurrency``,
    ``n_requests``, ``seed``, ``n_sites``, ``days``, ``retry_attempts``;
    a ``kind`` key is ignored).  Grid order is row-major — mode outer,
    rate inner — and mode ``clean`` contributes exactly one point (its
    only meaningful rate is 0), so a rebuilt grid fingerprints
    identically for journal resume.

    >>> grid, point_fn = service_chaos_grid({
    ...     "modes": ["clean", "tear"], "rates": [0.25, 0.5]})
    >>> [s.name for s in grid]
    ['clean', 'tear @ 25%', 'tear @ 50%']
    """
    p = dict(params)
    p.pop("kind", None)
    # intern the mode names: journal fingerprints hash the scenario's
    # pickle, and pickle memoizes by object identity — a JSON-loaded
    # "clean" (fresh object) would serialize differently from the
    # interned "clean" literal used for the scenario name.
    modes = [
        _sys.intern(str(m))
        for m in p.get("modes", ("clean", "reset", "tear", "disconnect"))
    ]
    rates = [float(r) for r in p.get("rates", (0.25, 0.5))]
    scenarios: List[ServiceChaosScenario] = []
    for mode in modes:
        mode_rates = [0.0] if mode == "clean" else rates
        for rate in mode_rates:
            scenarios.append(
                ServiceChaosScenario(
                    name="clean" if mode == "clean" else f"{mode} @ {rate:.0%}",
                    fault_mode=mode,
                    fault_rate=rate,
                    concurrency=int(p.get("concurrency", 4)),
                    n_requests=int(p.get("n_requests", 24)),
                    seed=int(p.get("seed", 0)),
                    retry_attempts=int(p.get("retry_attempts", 12)),
                )
            )
    point_fn = functools.partial(
        run_service_scenario,
        n_sites=int(p.get("n_sites", 2)),
        days=int(p.get("days", 7)),
    )
    return scenarios, point_fn


def run_service_chaos(
    modes: Sequence[str] = ("clean", "reset", "tear", "disconnect"),
    rates: Sequence[float] = (0.25, 0.5),
    concurrency: int = 4,
    n_requests: int = 24,
    seed: int = 0,
    n_sites: int = 2,
    days: int = 7,
    retry_attempts: int = 12,
    parallel: Optional[bool] = None,
    supervised: bool = False,
    retry=None,
    journal: Optional[str] = None,
) -> ServiceChaosReport:
    """Grid fault mode × rate against a live served catalog.

    Each point is an isolated server + proxy + client world (its own
    event loop), so points are independent and the grid runs through
    :func:`~repro.analysis.sweep.sweep_map` — or, with ``supervised`` /
    ``retry`` / ``journal``, through the resilient
    :class:`~repro.robustness.supervisor.SweepSupervisor` runtime with a
    resumable journal whose header stores the full recipe under
    ``kind: service_chaos`` (so ``python -m repro chaos-serve --resume``
    can finish an interrupted grid).

    Observability (when enabled): records a ``service_chaos``
    :class:`~repro.observability.manifest.RunManifest` with per-scenario
    verdicts and wire counters.

    >>> report = run_service_chaos(modes=["clean"], n_requests=2,
    ...     concurrency=1, n_sites=1, parallel=False)
    >>> len(report.results), report.all_ok
    (1, True)
    """
    recipe = {
        "modes": [str(m) for m in modes],
        "rates": [float(r) for r in rates],
        "concurrency": int(concurrency),
        "n_requests": int(n_requests),
        "seed": int(seed),
        "n_sites": int(n_sites),
        "days": int(days),
        "retry_attempts": int(retry_attempts),
    }
    scenarios, point_fn = service_chaos_grid(recipe)
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
            sweep_id="service_chaos",
            journal_params={"kind": "service_chaos", **recipe},
        )
        sweep_report = supervisor.run(point_fn, scenarios)
        results = [r for r in sweep_report.results if r is not None]
    else:
        results = sweep_map(point_fn, scenarios, parallel=parallel)
    report = ServiceChaosReport(
        results,
        quarantined=() if sweep_report is None else sweep_report.quarantined,
        recovery=None if sweep_report is None else sweep_report.recovery_summary(),
    )
    if observed:
        _manifest.record(
            _manifest.RunManifest(
                kind="service_chaos",
                name=f"{len(scenarios)}-point chaos-serve grid",
                created_unix=_time.time(),
                wall_s=_time.perf_counter() - wall0,
                cpu_s=_time.process_time() - cpu0,
                seeds={"wire": int(seed)},
                params=recipe,
                metrics=_metrics.registry().snapshot(),
                payload={
                    "all_ok": report.all_ok,
                    "n_quarantined": len(report.quarantined),
                    "recovery": report.recovery or None,
                    "scenarios": [
                        {
                            "name": r.scenario.name,
                            "ok": r.ok,
                            "n_answered": r.n_answered,
                            "n_failed": r.n_failed,
                            "n_reconnects": r.n_reconnects,
                            "n_replayed": r.n_replayed,
                        }
                        for r in report.results
                    ],
                },
            )
        )
    return report
