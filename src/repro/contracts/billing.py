"""The billing engine: Contract × load profile → Bill.

This is where the typology becomes money.  A :class:`Bill` settles a load
profile against every component of a contract over a sequence of billing
periods, and exposes the decomposition the paper's discussion relies on:
the share of the bill in the kWh domain vs the kW domain (the axis of the
[34] peak-ratio study) and the per-component audit trail.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .. import perfconfig
from ..exceptions import BillingError
from ..observability import manifest as _manifest
from ..observability import metrics as _metrics
from ..observability import trace as _trace
from ..timeseries.calendar import BillingPeriod, monthly_billing_periods
from ..timeseries.series import PowerSeries
from ..units import Money
from .columnar import (
    ComponentMatrix,
    PopulationBills,
    PopulationPlan,
    SitePopulation,
    _scalar_component_matrix,
    population_plan_for,
)
from .components import BillingContext, ChargeDomain, LineItem
from .contract import Contract
from .demand_charges import DemandCharge
from .settlement import SettlementPlan, plan_for

__all__ = ["PeriodBill", "Bill", "Reconciliation", "BillingEngine"]


@dataclass(frozen=True)
class PeriodBill:
    """All line items for one billing period."""

    period: BillingPeriod
    line_items: Sequence[LineItem]
    energy_kwh: float
    peak_kw: float

    @functools.cached_property
    def total(self) -> float:
        """Sum of all line amounts (contract currency).

        Cached: line items are frozen and the sequence never changes after
        settlement, and sweep harnesses read period totals repeatedly.
        """
        return sum(item.amount for item in self.line_items)

    def domain_total(self, domain: ChargeDomain) -> float:
        """Sum of line amounts in one typology branch."""
        return sum(item.amount for item in self.line_items if item.domain is domain)


class Bill:
    """A settled bill: per-period line items plus decomposition helpers.

    Parameters
    ----------
    contract / period_bills:
        What was priced, per period.
    estimated:
        True when the bill was settled against VEE-estimated meter data
        rather than fully measured actuals (utility practice: an
        *estimated bill*, to be trued up by a later reconciliation — see
        :meth:`BillingEngine.reconcile`).
    data_quality:
        Optional data-quality metadata (estimated interval counts and
        fractions, as produced by
        :meth:`repro.robustness.vee.EstimatedSeries.data_quality`).
    """

    def __init__(
        self,
        contract: Contract,
        period_bills: Sequence[PeriodBill],
        estimated: bool = False,
        data_quality: Optional[Dict[str, float]] = None,
    ) -> None:
        if not period_bills:
            raise BillingError("a bill requires at least one billing period")
        self.contract = contract
        self.period_bills: List[PeriodBill] = list(period_bills)
        self.estimated = bool(estimated)
        self.data_quality: Optional[Dict[str, float]] = (
            dict(data_quality) if data_quality is not None else None
        )
        self._domain_totals: Optional[Dict[ChargeDomain, float]] = None
        # The settled bill keeps its settlement plan alive: plan_for
        # memoizes plans only weakly (a strong global table would pin
        # every load ever billed), so the bills themselves are what keep
        # re-billing the same load a cache hit.  Never pickled — see
        # __getstate__.
        self._plan: Optional[SettlementPlan] = None

    def __getstate__(self) -> Dict[str, object]:
        """Pickle state without the settlement plan.

        Plans hold a lock and the full load geometry; results shipped
        back from sweep workers (and journaled) must stay slim.
        """
        state = dict(self.__dict__)
        state["_plan"] = None
        return state

    # -- totals ---------------------------------------------------------------

    @functools.cached_property
    def total(self) -> float:
        """Grand total across all periods (contract currency).

        Cached: a bill is immutable once settled, and reconciliation /
        sweep code reads the grand total many times per bill.
        """
        return sum(pb.total for pb in self.period_bills)

    def total_money(self) -> Money:
        """Grand total as :class:`~repro.units.Money`."""
        return Money(self.total, self.contract.currency)

    def domain_total(self, domain: ChargeDomain) -> float:
        """Grand total of one typology branch.

        Per-domain totals are computed once (a single pass over every line
        item) and cached on the bill — line items are frozen dataclasses and
        period bills never change after construction, so the cache can
        never go stale.  ``domain_share`` previously recomputed every
        branch total on every call; it now reads this cache.
        """
        if self._domain_totals is None:
            totals = {d: 0.0 for d in ChargeDomain}
            for pb in self.period_bills:
                for item in pb.line_items:
                    totals[item.domain] += item.amount
            self._domain_totals = totals
        return self._domain_totals[domain]

    @property
    def energy_cost(self) -> float:
        """Total of the kWh-domain (tariff) branch."""
        return self.domain_total(ChargeDomain.ENERGY_KWH)

    @property
    def demand_cost(self) -> float:
        """Total of the kW-domain (demand charge / powerband) branch."""
        return self.domain_total(ChargeDomain.POWER_KW)

    @property
    def other_cost(self) -> float:
        """Total of the "other" branch (emergency DR credits/penalties)."""
        return self.domain_total(ChargeDomain.OTHER)

    def domain_share(self, domain: ChargeDomain) -> float:
        """Fraction of the bill in one branch — the [34] study's y-axis.

        Shares are computed against the sum of positive branch totals so a
        credit-carrying "other" branch cannot push shares above one.
        """
        positive = sum(
            max(self.domain_total(d), 0.0) for d in ChargeDomain
        )
        if positive <= 0:
            raise BillingError("bill has no positive charges; shares undefined")
        return max(self.domain_total(domain), 0.0) / positive

    @property
    def demand_charge_share(self) -> float:
        """Share of the bill paid in the kW domain."""
        return self.domain_share(ChargeDomain.POWER_KW)

    # -- audit ------------------------------------------------------------------

    @property
    def total_energy_kwh(self) -> float:
        """Metered energy across all periods (kWh)."""
        return sum(pb.energy_kwh for pb in self.period_bills)

    @property
    def max_peak_kw(self) -> float:
        """Highest billing-period peak across the bill (kW)."""
        return max(pb.peak_kw for pb in self.period_bills)

    def effective_rate_per_kwh(self) -> float:
        """All-in average price paid per kWh."""
        energy = self.total_energy_kwh
        if energy <= 0:
            raise BillingError("no metered energy; effective rate undefined")
        return self.total / energy

    def line_items_for(self, component_name: str) -> List[LineItem]:
        """Every period's line item from one component, in period order."""
        return [
            item
            for pb in self.period_bills
            for item in pb.line_items
            if item.component == component_name
        ]

    def component_total(self, component_name: str) -> float:
        """Grand total charged by one component."""
        return sum(item.amount for item in self.line_items_for(component_name))

    def summary(self) -> Dict[str, float]:
        """Headline figures, for reports and tests."""
        return {
            "total": self.total,
            "energy_cost": self.energy_cost,
            "demand_cost": self.demand_cost,
            "other_cost": self.other_cost,
            "total_energy_kwh": self.total_energy_kwh,
            "max_peak_kw": self.max_peak_kw,
            "effective_rate_per_kwh": self.effective_rate_per_kwh(),
            "estimated": float(self.estimated),
        }


@dataclass(frozen=True)
class Reconciliation:
    """A true-up of an estimated bill against corrected meter data.

    Utility practice: when actual (or VEE-corrected) reads arrive after an
    estimated bill was issued, the next bill carries a *true-up adjustment*
    — the difference between what the corrected data prices to and what was
    estimated.  Positive ``total_adjustment`` means the customer owes more;
    negative means a credit.
    """

    estimated_bill: Bill
    true_bill: Bill
    period_adjustments: Sequence[float] = field(default_factory=tuple)
    component_adjustments: Dict[str, float] = field(default_factory=dict)

    @property
    def total_adjustment(self) -> float:
        """True total minus estimated total (contract currency)."""
        return self.true_bill.total - self.estimated_bill.total

    @property
    def absolute_error_fraction(self) -> float:
        """|estimated − true| / |true| — the estimation-quality headline."""
        true_total = self.true_bill.total
        if true_total == 0.0:
            return 0.0 if self.estimated_bill.total == 0.0 else float("inf")
        return abs(self.total_adjustment) / abs(true_total)

    def within_tolerance(self, fraction: float) -> bool:
        """True when the estimated bill was within ``fraction`` of true."""
        if fraction < 0:
            raise BillingError("tolerance fraction must be non-negative")
        return self.absolute_error_fraction <= fraction

    def summary(self) -> Dict[str, float]:
        """Headline true-up figures for reports."""
        return {
            "estimated_total": self.estimated_bill.total,
            "true_total": self.true_bill.total,
            "total_adjustment": self.total_adjustment,
            "absolute_error_fraction": self.absolute_error_fraction,
            "n_periods": float(len(self.period_adjustments)),
        }


class BillingEngine:
    """Settles load profiles against contracts.

    The engine is stateless across bills; per-bill component state (the
    demand-charge ratchet) is reset at the start of every settlement.

    Observability: while :func:`repro.perfconfig.observability_enabled` is
    true, every :meth:`bill` / :meth:`bill_many` call opens a ``settle``
    trace span, records per-charge-component settlement timers
    (``billing.component.<name>``) and settled-bill memo hit/miss counters,
    and emits a :class:`~repro.observability.manifest.RunManifest` whose
    per-component payload totals reconcile exactly with the returned
    :class:`Bill` (readable via
    :func:`repro.observability.manifest.last_manifest`).  Disabled — the
    default — the settlement fast path runs without any observability
    allocations.
    """

    def __init__(self, demand_interval_s: float = 900.0) -> None:
        if demand_interval_s <= 0:
            raise BillingError("demand_interval_s must be positive")
        self.demand_interval_s = float(demand_interval_s)

    def _resolve_periods(
        self, load: PowerSeries, periods: Optional[Sequence[BillingPeriod]]
    ) -> Sequence[BillingPeriod]:
        """Default/validate billing periods for ``load``."""
        if periods is None:
            if load.start_s != 0.0:
                raise BillingError(
                    "default monthly billing periods require a load starting "
                    "at the canonical year origin (start_s == 0, i.e. "
                    f"January 1st); this load starts at start_s="
                    f"{load.start_s!r} s — pass explicit billing periods "
                    "(e.g. monthly_billing_periods(start_s=load.start_s))"
                )
            periods = monthly_billing_periods(start_s=load.start_s)
        for period in periods:
            if not period.covers(load):
                raise BillingError(
                    f"load profile [{load.start_s}, {load.end_s}) s does not "
                    f"cover billing period {period.label!r} "
                    f"[{period.start_s}, {period.end_s}) s"
                )
        return periods

    def _settle(
        self,
        contract: Contract,
        plan: SettlementPlan,
        context: Optional[BillingContext],
        estimated: bool,
        data_quality: Optional[Dict[str, float]],
    ) -> Bill:
        """Single-pass settlement of one contract over a shared plan.

        Settlement is a pure function of ``(plan, contract, context)`` —
        ratchets are reset up front, so replaying the triple yields the
        same line items.  The plan memoizes the resulting period bills
        (they are immutable), so e.g. the estimated-bill/true-up cycle of
        the chaos harness prices each distinct load exactly once; per-bill
        metadata (``estimated`` / ``data_quality``) stays on the
        :class:`Bill` wrapper, outside the memo.
        """
        observed = perfconfig.observability_enabled()
        period_bills = plan.settlement_for(contract, context)
        if observed:
            _metrics.inc(
                "settlement.memo.miss" if period_bills is None else "settlement.memo.hit"
            )
        if period_bills is None:
            # reset per-bill component state (demand-charge ratchets)
            for comp in contract.components:
                if isinstance(comp, DemandCharge):
                    comp.reset()
            # one call per component (not per component × period);
            # vectorizing components reduce full-horizon arrays, the rest
            # fall back to the legacy loop over the plan's shared metered
            # slices.  The observed variant wraps each component call in a
            # span + per-component settlement timer; the default path stays
            # allocation-free.
            per_component: List[List[LineItem]]
            if observed:
                per_component = self._charge_components_observed(
                    contract, plan, context
                )
            else:
                per_component = [
                    comp.charge_periods(plan, context) for comp in contract.components
                ]
            period_bills = []
            for k in range(plan.n_periods):
                period_bills.append(
                    PeriodBill(
                        period=plan.periods[k],
                        line_items=tuple(items[k] for items in per_component),
                        energy_kwh=plan.period_energy_kwh(k),
                        peak_kw=plan.period_peak_kw(k),
                    )
                )
            plan.store_settlement(contract, context, period_bills)
        bill = Bill(contract, period_bills, estimated=estimated, data_quality=data_quality)
        bill._plan = plan
        return bill

    def _charge_components_observed(
        self,
        contract: Contract,
        plan: SettlementPlan,
        context: Optional[BillingContext],
    ) -> List[List[LineItem]]:
        """The observability-enabled component loop of :meth:`_settle`.

        Opens a ``settle`` span attributed with the contract, and records
        one ``billing.component.<name>`` timer observation per component —
        the per-charge-component cost attribution Borghesi-style pricing
        analyses need.  Only reached while
        :func:`repro.perfconfig.observability_enabled` is true.
        """
        # only reached from _settle's observed branch; the one-boolean-read
        # gate already happened at the call site
        registry = _metrics.registry()  # reprolint: disable=RPL030
        per_component: List[List[LineItem]] = []
        with _trace.span(
            "settle", contract=contract.name, n_periods=plan.n_periods
        ) as settle_span:
            for comp in contract.components:
                with registry.timer(f"billing.component.{comp.name}").time():
                    per_component.append(comp.charge_periods(plan, context))
            settle_span.event(
                "components_priced", n_components=len(per_component)
            )
        return per_component

    @staticmethod
    def _bill_payload(bill: Bill) -> Dict[str, object]:
        """Manifest payload for one bill: totals that reconcile exactly.

        Every figure is read back from the returned :class:`Bill` itself
        (not recomputed), so ``payload["components"][name] ==
        bill.component_total(name)`` holds identically — the reconciliation
        property ``tests/test_observability.py`` asserts.
        """
        return {
            "contract": bill.contract.name,
            "total": bill.total,
            "components": {
                comp.name: bill.component_total(comp.name)
                for comp in bill.contract.components
            },
            "energy_cost": bill.energy_cost,
            "demand_cost": bill.demand_cost,
            "other_cost": bill.other_cost,
            "total_energy_kwh": bill.total_energy_kwh,
            "max_peak_kw": bill.max_peak_kw,
            "n_periods": len(bill.period_bills),
            "estimated": bill.estimated,
        }

    def _emit_manifest(
        self,
        kind: str,
        name: str,
        wall_s: float,
        cpu_s: float,
        params: Dict[str, object],
        payload: Dict[str, object],
    ) -> None:
        """Record a :class:`~repro.observability.manifest.RunManifest`.

        Defensively re-checks the observability switch (callers already
        gate on it) so a disabled run can never pay for manifest assembly.
        """
        if not perfconfig.observability_enabled():
            return
        _manifest.record(
            _manifest.RunManifest(
                kind=kind,
                name=name,
                created_unix=time.time(),
                wall_s=wall_s,
                cpu_s=cpu_s,
                params=params,
                metrics=_metrics.registry().snapshot(),
                payload=payload,
            )
        )

    def bill(
        self,
        contract: Contract,
        load: PowerSeries,
        periods: Optional[Sequence[BillingPeriod]] = None,
        context: Optional[BillingContext] = None,
        estimated: bool = False,
        data_quality: Optional[Dict[str, float]] = None,
        fastpath: bool = True,
    ) -> Bill:
        """Settle ``load`` under ``contract`` over ``periods``.

        Parameters
        ----------
        contract:
            The contract to price under.
        load:
            Metered facility load.  Must cover every billing period.
        periods:
            Billing periods; defaults to the twelve calendar months of the
            canonical year starting at the load's start time (which must
            then be 0, i.e. January 1st — a load starting elsewhere raises
            :class:`~repro.exceptions.BillingError` naming the actual
            start, rather than failing with an opaque coverage error).
        context:
            Out-of-band billing facts (real-time prices, emergency calls).
        estimated / data_quality:
            Mark the bill as settled against VEE-estimated data (see
            :mod:`repro.robustness.vee`); such bills should later be trued
            up via :meth:`reconcile`.
        fastpath:
            When true (the default), settle through a shared
            :class:`~repro.contracts.settlement.SettlementPlan` — one
            load-side precomputation reused by every component, with
            vectorizing components pricing all periods in a single pass.
            ``fastpath=False`` forces the legacy per-(component, period)
            loop; the two paths agree on every line item to ≤ 1e-9
            (enforced by ``tests/test_settlement_fastpath.py``).
        """
        periods = self._resolve_periods(load, periods)
        observed = perfconfig.observability_enabled()
        t0_wall = time.perf_counter() if observed else 0.0
        t0_cpu = time.process_time() if observed else 0.0
        if not fastpath:
            settled = self._bill_legacy(
                contract, load, periods, context, estimated, data_quality
            )
        else:
            plan = plan_for(load, periods)
            settled = self._settle(contract, plan, context, estimated, data_quality)
        if observed:
            self._emit_manifest(
                kind="bill",
                name=contract.name,
                wall_s=time.perf_counter() - t0_wall,
                cpu_s=time.process_time() - t0_cpu,
                params={
                    "n_periods": len(periods),
                    "fastpath": fastpath,
                    "n_intervals": len(load),
                    "interval_s": load.interval_s,
                },
                payload=self._bill_payload(settled),
            )
        return settled

    def _bill_legacy(
        self,
        contract: Contract,
        load: PowerSeries,
        periods: Sequence[BillingPeriod],
        context: Optional[BillingContext] = None,
        estimated: bool = False,
        data_quality: Optional[Dict[str, float]] = None,
    ) -> Bill:
        """The pre-fast-path settlement loop, kept as the reference
        implementation for differential tests and benchmarks."""
        for comp in contract.components:
            if isinstance(comp, DemandCharge):
                comp.reset()
        period_bills: List[PeriodBill] = []
        for period in periods:
            period_load = period.slice(load)
            items: List[LineItem] = []
            for comp in contract.components:
                metered = comp.metered(period_load)
                items.append(comp.charge(metered, period, context))
            period_bills.append(
                PeriodBill(
                    period=period,
                    line_items=tuple(items),
                    energy_kwh=period_load.energy_kwh(),
                    peak_kw=period_load.max_kw(),
                )
            )
        return Bill(contract, period_bills, estimated=estimated, data_quality=data_quality)

    def bill_many(
        self,
        contracts: Sequence[Contract],
        load: PowerSeries,
        periods: Optional[Sequence[BillingPeriod]] = None,
        context: Optional[BillingContext] = None,
        contexts: Optional[Sequence[Optional[BillingContext]]] = None,
        fastpath: bool = True,
    ) -> List[Bill]:
        """Settle one load under many contracts, sharing load-side work.

        The load is sliced, resampled and reduced **once** into a
        :class:`~repro.contracts.settlement.SettlementPlan`; every contract
        then settles against the shared plan, so a five-contract comparison
        pays for one load-side pass instead of five.  This is the batch
        entry point the comparison/evolution harnesses use.

        Parameters
        ----------
        contracts:
            Contracts to price, in order (bills are returned in the same
            order).
        load / periods:
            As for :meth:`bill` (the same period default and guard apply).
        context:
            A single context shared by every contract.
        contexts:
            Per-contract contexts (same length as ``contracts``); mutually
            exclusive with ``context``.
        fastpath:
            As for :meth:`bill`.
        """
        if context is not None and contexts is not None:
            raise BillingError("pass either context or contexts, not both")
        if contexts is not None and len(contexts) != len(contracts):
            raise BillingError(
                f"contexts length {len(contexts)} != contracts length "
                f"{len(contracts)}"
            )
        periods = self._resolve_periods(load, periods)
        per_contract: Sequence[Optional[BillingContext]] = (
            contexts if contexts is not None else [context] * len(contracts)
        )
        observed = perfconfig.observability_enabled()
        t0_wall = time.perf_counter() if observed else 0.0
        t0_cpu = time.process_time() if observed else 0.0
        if not fastpath:
            bills = [
                self._bill_legacy(c, load, periods, ctx)
                for c, ctx in zip(contracts, per_contract)
            ]
        else:
            plan = plan_for(load, periods)
            bills = [
                self._settle(c, plan, ctx, False, None)
                for c, ctx in zip(contracts, per_contract)
            ]
        if observed:
            self._emit_manifest(
                kind="bill_many",
                name=f"{len(contracts)} contracts",
                wall_s=time.perf_counter() - t0_wall,
                cpu_s=time.process_time() - t0_cpu,
                params={
                    "n_contracts": len(contracts),
                    "n_periods": len(periods),
                    "fastpath": fastpath,
                    "n_intervals": len(load),
                    "interval_s": load.interval_s,
                },
                payload={"bills": [self._bill_payload(b) for b in bills]},
            )
        return bills

    def _resolve_population_periods(
        self,
        population: SitePopulation,
        periods: Optional[Sequence[BillingPeriod]],
    ) -> Sequence[BillingPeriod]:
        """Default/validate billing periods for a population (shared grid)."""
        if periods is None:
            if population.start_s != 0.0:
                raise BillingError(
                    "default monthly billing periods require a population "
                    "starting at the canonical year origin (start_s == 0, "
                    "i.e. January 1st); this population starts at start_s="
                    f"{population.start_s!r} s — pass explicit billing "
                    "periods (e.g. "
                    "monthly_billing_periods(start_s=population.start_s))"
                )
            periods = monthly_billing_periods(start_s=population.start_s)
        for period in periods:
            if not period.covers(population):
                raise BillingError(
                    f"population span [{population.start_s}, "
                    f"{population.end_s}) s does not cover billing period "
                    f"{period.label!r} [{period.start_s}, {period.end_s}) s"
                )
        return periods

    def bill_population(
        self,
        population: SitePopulation,
        contract: Contract,
        periods: Optional[Sequence[BillingPeriod]] = None,
        context: Optional[BillingContext] = None,
    ) -> PopulationBills:
        """Settle a whole site population under one contract, columnar.

        Every contract component prices the population's
        ``(n_sites, n_intervals)`` load matrix in one vectorized pass
        through its ``charge_matrix`` kernel; components without a kernel
        (or whose geometry a kernel cannot reproduce exactly) fall back to
        the exact per-site scalar settlement for that component only, so
        the result is always equivalent to billing each site separately —
        the differential contract ``tests/test_columnar.py`` enforces
        agreement within 1e-9 (relative, with an absolute floor) against
        :meth:`bill` / :meth:`bill_many`.

        Parameters
        ----------
        population:
            The site population (shared metering grid).
        contract:
            The contract every site holds.
        periods:
            Billing periods; same default and guard as :meth:`bill`.
        context:
            Out-of-band billing facts shared by the whole population
            (real-time prices, emergency calls).

        Returns
        -------
        PopulationBills
            Per-site charge arrays plus an on-demand materializer to
            audit-grade :class:`Bill` objects
            (:meth:`~repro.contracts.columnar.PopulationBills.materialize`).
        """
        periods = self._resolve_population_periods(population, periods)
        observed = perfconfig.observability_enabled()
        t0_wall = time.perf_counter() if observed else 0.0
        t0_cpu = time.process_time() if observed else 0.0
        plan = population_plan_for(population, periods)
        if observed:
            matrices = self._charge_population_observed(contract, plan, context)
        else:
            matrices = []
            for comp in contract.components:
                matrix = comp.charge_matrix(plan, context)
                if matrix is None:
                    matrix = _scalar_component_matrix(
                        comp, population, periods, context
                    )
                matrices.append(matrix)
        bills = PopulationBills(self, plan, contract, context, matrices)
        if observed:
            self._emit_manifest(
                kind="bill_population",
                name=contract.name,
                wall_s=time.perf_counter() - t0_wall,
                cpu_s=time.process_time() - t0_cpu,
                params={
                    "n_sites": population.n_sites,
                    "n_periods": len(periods),
                    "n_intervals": population.n_intervals,
                    "interval_s": population.interval_s,
                },
                payload=self._population_payload(bills),
            )
        return bills

    def _charge_population_observed(
        self,
        contract: Contract,
        plan: PopulationPlan,
        context: Optional[BillingContext],
    ) -> List[ComponentMatrix]:
        """The observability-enabled kernel loop of :meth:`bill_population`.

        Opens a ``bill_population`` span attributed with the contract and
        population size, counts the sites settled
        (``billing.population.sites``) and per-component scalar fallbacks
        (``billing.population.fallback``), and records one
        ``billing.population.component.<name>`` timer observation per
        component.  Only reached while
        :func:`repro.perfconfig.observability_enabled` is true.
        """
        # only reached from bill_population's observed branch; the
        # one-boolean-read gate already happened at the call site
        registry = _metrics.registry()  # reprolint: disable=RPL030
        matrices: List[ComponentMatrix] = []
        with _trace.span(
            "bill_population",
            contract=contract.name,
            n_sites=plan.n_sites,
            n_periods=plan.n_periods,
        ) as pop_span:
            registry.counter("billing.population.sites").inc(plan.n_sites)
            n_fallback = 0
            for comp in contract.components:
                with registry.timer(
                    f"billing.population.component.{comp.name}"
                ).time():
                    matrix = comp.charge_matrix(plan, context)
                    if matrix is None:
                        n_fallback += 1
                        registry.counter("billing.population.fallback").inc()
                        matrix = _scalar_component_matrix(
                            comp, plan.population, plan.periods, context
                        )
                    matrices.append(matrix)
            pop_span.event(
                "components_priced",
                n_components=len(matrices),
                n_fallback=n_fallback,
            )
        return matrices

    @staticmethod
    def _population_payload(bills: PopulationBills) -> Dict[str, object]:
        """Manifest payload for a population settlement.

        Every figure is read back from the returned
        :class:`~repro.contracts.columnar.PopulationBills` itself (not
        recomputed), preserving the manifest-reconciles-with-result
        property the per-bill manifests have.
        """
        summary = bills.summary()
        summary["components"] = {
            comp.name: float(bills.component_amounts(comp.name).sum())
            for comp in bills.contract.components
        }
        return summary

    def reconcile(
        self,
        contract: Contract,
        estimated_bill: Bill,
        corrected_load: PowerSeries,
        context: Optional[BillingContext] = None,
        fastpath: bool = True,
    ) -> Reconciliation:
        """True up an estimated bill against corrected meter data.

        Re-settles ``corrected_load`` under the same contract over the
        estimated bill's own billing periods, and returns the
        :class:`Reconciliation` carrying per-period and per-component
        adjustments (true − estimated).  This is the utility "estimated
        bill, then true-up" cycle made explicit.
        """
        if not estimated_bill.estimated:
            raise BillingError(
                "reconcile() is for estimated bills; this bill was settled "
                "against measured data"
            )
        periods = [pb.period for pb in estimated_bill.period_bills]
        true_bill = self.bill(contract, corrected_load, periods, context, fastpath=fastpath)
        period_adjustments = tuple(
            t.total - e.total
            for t, e in zip(true_bill.period_bills, estimated_bill.period_bills)
        )
        component_adjustments: Dict[str, float] = {}
        for comp in contract.components:
            component_adjustments[comp.name] = true_bill.component_total(
                comp.name
            ) - estimated_bill.component_total(comp.name)
        return Reconciliation(
            estimated_bill=estimated_bill,
            true_bill=true_bill,
            period_adjustments=period_adjustments,
            component_adjustments=component_adjustments,
        )

    def annual_bill(
        self,
        contract: Contract,
        load: PowerSeries,
        context: Optional[BillingContext] = None,
    ) -> Bill:
        """Convenience: settle a full canonical year on monthly periods."""
        return self.bill(contract, load, None, context)
