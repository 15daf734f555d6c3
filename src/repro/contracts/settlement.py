"""The settlement fast path: precomputed load-side geometry for billing.

Legacy settlement re-sliced the load per billing period and re-metered it
per component — 12 periods × k components of slicing, validation and
resampling per bill, and every TOU component rebuilt its calendar masks
from scratch per period.  A :class:`SettlementPlan` computes the load-side
artifacts **once** per ``(load, periods)`` pair and shares them:

* per-period interval bounds on the native metering grid;
* per-period native slices (lazy, shared across all components that meter
  at the telemetry's native interval);
* per-period *metered* slices per distinct metering convention (lazy,
  shared across components with the same ``metered`` behavior — e.g. two
  demand charges at 15-minute metering share one resample);
* full-horizon metered series with aligned per-period bounds, for
  components that vectorize across periods (single-pass settlement);
* per-period energy/peak figures for the :class:`~repro.contracts.billing.PeriodBill`
  audit fields;
* a settled-bill memo: re-settling the identical ``(contract, context)``
  pair over the same plan (the chaos harness' estimated-bill/true-up
  cycle) reuses the immutable period bills outright.

Plans are memoized on the load instance itself with weak values — the
same treatment :func:`~repro.contracts.columnar.population_plan_for`
gives population plans.  A plan holds its load strongly (it is load-side
geometry), so any global load → plan table — even weak-keyed — would
make every load strongly reachable through its own value and pin it for
the life of the process; a service pricing a stream of distinct loads
would leak ~70 KB per load billed.  Instead the memo rides on the load
and its values are weak: a plan lives exactly as long as someone holds
it — and the natural consumer, :class:`~repro.contracts.billing.Bill`,
does, so repeated bills of the same load and period structure, and
:meth:`~repro.contracts.billing.BillingEngine.bill_many` batches across
contracts, all share one plan while any of their bills is alive.

Equivalence contract: every fast-path artifact is constructed by the same
NumPy reductions over the same contiguous data as the legacy per-period
path, so line items agree bit-for-bit (the differential test in
``tests/test_settlement_fastpath.py`` enforces ≤ 1e-9 absolute).

Observability: while :func:`repro.perfconfig.observability_enabled` is
true, the plan cache reports ``settlement.plan_cache.hit`` /
``settlement.plan_cache.miss`` counters to
:mod:`repro.observability.metrics` (the settled-bill memo's
``settlement.memo.*`` counters are reported by the billing engine, which
sees the hit/miss outcome).  Disabled, settlement pays one boolean read.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

from .. import perfconfig
from ..exceptions import BillingError, IntervalMismatchError
from ..observability import metrics as _metrics
from ..timeseries.calendar import BillingPeriod
from ..timeseries.series import PowerSeries
from .components import ContractComponent

__all__ = ["SettlementPlan", "plan_for"]


class SettlementPlan:
    """Shared, immutable load-side precomputation for one settlement.

    Parameters
    ----------
    load:
        The metered facility load, covering every period.
    periods:
        Billing periods, in settlement order (the order ratchets see).
    """

    def __init__(self, load: PowerSeries, periods: Sequence[BillingPeriod]) -> None:
        if not periods:
            raise BillingError("a settlement plan requires at least one period")
        self.load = load
        self.periods: List[BillingPeriod] = list(periods)
        self._native_bounds: List[Optional[Tuple[int, int]]] = [None] * len(
            self.periods
        )
        self._period_energy: List[Optional[float]] = [None] * len(self.periods)
        self._period_peak: List[Optional[float]] = [None] * len(self.periods)
        # settled-period-bill memo: (contract ref, price ref, calls) -> bills
        self._settlements: List[Tuple] = []
        self._settlements_max = 16
        # (metered-key) -> per-period metered PowerSeries (lazy)
        self._metered_periods: Dict[Tuple, List[Optional[PowerSeries]]] = {}
        # (metered-key) -> (full-horizon metered series, per-period bounds)
        # or None when the full-horizon shortcut is unavailable
        self._metered_full: Dict[Tuple, Optional[Tuple[PowerSeries, List[Tuple[int, int]]]]] = {}
        self._lock = threading.Lock()

    # -- geometry ----------------------------------------------------------

    @property
    def n_periods(self) -> int:
        """Number of billing periods in the plan."""
        return len(self.periods)

    def native_bounds(self, k: int) -> Tuple[int, int]:
        """Interval-index bounds of period ``k`` on the native load grid."""
        bounds = self._native_bounds[k]
        if bounds is None:
            period = self.periods[k]
            bounds = self.load.interval_bounds(period.start_s, period.end_s)
            self._native_bounds[k] = bounds
        return bounds

    def native_period(self, k: int) -> PowerSeries:
        """The native-interval sub-series of period ``k`` (cached)."""
        key = ("native",)
        slices = self._metered_periods.get(key)
        if slices is None:
            slices = [None] * self.n_periods
            self._metered_periods[key] = slices
        series = slices[k]
        if series is None:
            i0, i1 = self.native_bounds(k)
            series = self.load.slice_intervals(i0, i1)
            slices[k] = series
        return series

    # -- audit figures -----------------------------------------------------

    def period_energy_kwh(self, k: int) -> float:
        """Metered energy of period ``k`` (kWh), identical to the legacy
        ``period.slice(load).energy_kwh()`` reduction.  Memoized: every
        bill settled through this plan reuses the reductions."""
        energy = self._period_energy[k]
        if energy is None:
            i0, i1 = self.native_bounds(k)
            energy = float(self.load.values_kw[i0:i1].sum() * self.load.interval_h)
            self._period_energy[k] = energy
        return energy

    def period_peak_kw(self, k: int) -> float:
        """Peak interval-mean power of period ``k`` (kW), memoized."""
        peak = self._period_peak[k]
        if peak is None:
            i0, i1 = self.native_bounds(k)
            peak = float(self.load.values_kw[i0:i1].max())
            self._period_peak[k] = peak
        return peak

    # -- metering ----------------------------------------------------------

    @staticmethod
    def _metered_key(component) -> Tuple:
        """Cache key capturing a component's metering behavior.

        Components share metered slices when they share both the
        ``metered`` implementation and the metering interval — a subclass
        overriding :meth:`~repro.contracts.components.ContractComponent.metered`
        (e.g. the powerband's as-observed rule) gets its own cache row.
        """
        return (type(component).metered, component.metering_interval_s)

    def metered_period(self, component, k: int) -> PowerSeries:
        """Period ``k`` metered for ``component`` (cached, shared).

        Semantics are exactly the legacy path's
        ``component.metered(period.slice(load))``; the result is cached so
        every component with the same metering convention (across all
        contracts settling through this plan) reuses it.
        """
        if (
            component.metering_interval_s is None
            and type(component).metered is ContractComponent.metered
        ):
            # default metering at the native interval is the identity
            return self.native_period(k)
        key = self._metered_key(component)
        slices = self._metered_periods.get(key)
        if slices is None:
            slices = [None] * self.n_periods
            self._metered_periods[key] = slices
        series = slices[k]
        if series is None:
            series = component.metered(self.native_period(k))
            slices[k] = series
        return series

    def metered_full(self, component) -> Optional[Tuple[PowerSeries, List[Tuple[int, int]]]]:
        """Full-horizon metered series + aligned per-period bounds, or ``None``.

        This powers single-pass components: ``component.metered`` is applied
        once to the whole load, and each period maps to a contiguous index
        range of the result.  Returns ``None`` (caller falls back to the
        per-period path) when the full horizon cannot be metered as one
        block or a period edge does not land on the metered grid — the
        per-period blocks would then differ from the full-horizon blocks
        and equivalence would be lost.
        """
        key = self._metered_key(component)
        if key in self._metered_full:
            return self._metered_full[key]
        result: Optional[Tuple[PowerSeries, List[Tuple[int, int]]]]
        try:
            full = component.metered(self.load)
        except IntervalMismatchError:
            result = None
        else:
            try:
                bounds = [
                    full.interval_bounds(p.start_s, p.end_s) for p in self.periods
                ]
            except Exception:
                result = None
            else:
                n = len(full)
                if all(0 <= i0 < i1 <= n for i0, i1 in bounds):
                    result = (full, bounds)
                else:
                    result = None
        self._metered_full[key] = result
        return result

    # -- settled-bill memo -------------------------------------------------

    @staticmethod
    def _context_signature(context) -> Tuple:
        """(price series or None, emergency-call tuple) for ``context``.

        The price series is compared by identity (it is a large immutable
        array object; value comparison would defeat the point), the
        emergency calls by value (:class:`~repro.contracts.emergency.EmergencyCall`
        is a frozen dataclass, so tuples of calls compare structurally).
        """
        if context is None:
            return (None, ())
        return (context.price_series, tuple(context.emergency_calls))

    def settlement_for(self, contract, context) -> Optional[List]:
        """Previously settled period bills for ``(contract, context)``.

        The chaos harness' estimated-bill/true-up cycle — and any sweep
        replaying identical scenarios — settles the *same* contract object
        over the *same* plan with an identical context many times; the
        resulting :class:`~repro.contracts.billing.PeriodBill` objects are
        immutable, so the settlement can be memoized on the plan and the
        period bills shared across :class:`~repro.contracts.billing.Bill`
        instances (per-bill metadata such as ``estimated`` stays outside
        the memo).  Contracts and price series are held weakly.
        """
        price, calls = self._context_signature(context)
        for c_ref, p_ref, e_calls, bills in self._settlements:
            if c_ref() is not contract:
                continue
            if p_ref is None:
                if price is not None:
                    continue
            else:
                cached_price = p_ref()
                if cached_price is None or cached_price is not price:
                    continue
            if e_calls == calls:
                return bills
        return None

    def store_settlement(self, contract, context, period_bills) -> None:
        """Memoize ``period_bills`` for ``(contract, context)``."""
        price, calls = self._context_signature(context)
        try:
            c_ref = weakref.ref(contract)
            p_ref = weakref.ref(price) if price is not None else None
        except TypeError:  # un-weakref-able stand-in; skip the memo
            return
        entries = [
            e
            for e in self._settlements
            if e[0]() is not None and (e[1] is None or e[1]() is not None)
        ]
        if len(entries) >= self._settlements_max:
            entries = entries[-(self._settlements_max - 1):]
        entries.append((c_ref, p_ref, calls, list(period_bills)))
        self._settlements = entries


# -- the plan memo -----------------------------------------------------------

#: Loads that currently own a plan memo, so the perfconfig cache clearer
#: can reach memos that live on the load instances themselves.  The memo
#: is an instance attribute rather than a global mapping because a plan
#: references its load strongly: any global load → plan table — even
#: weak-keyed — would make every key strongly reachable through its own
#: value and pin every load ever billed for the life of the process
#: (~70 KB per load; fatal for a service pricing a stream of loads).
#: The memo's values are weak too: a strong entry would close a
#: load → memo → plan → load cycle that only periodic gc breaks.  The
#: plan therefore lives exactly as long as someone holds it — and the
#: natural consumer, :class:`~repro.contracts.billing.Bill`, does, so
#: sweeps that keep their bills (all of them do) stay cache hits.
_PLAN_MEMO_OWNERS: "weakref.WeakSet[PowerSeries]" = weakref.WeakSet()
_PLAN_MEMO_LOCK = threading.Lock()

#: Distinct period tuples cached per load before the memo resets.
_PLANS_PER_LOAD_MAX = 32


def _clear_plan_memos() -> None:
    with _PLAN_MEMO_LOCK:
        for load in list(_PLAN_MEMO_OWNERS):
            load._plan_memo.clear()


perfconfig.register_cache_clearer(_clear_plan_memos)


def plan_for(load: PowerSeries, periods: Sequence[BillingPeriod]) -> SettlementPlan:
    """The (cached) settlement plan for ``load`` over ``periods``.

    Keyed by load identity and the period tuple: re-billing the same load
    object over the same periods — the shape of every sweep harness —
    reuses all slices, resamples and derived arrays.  The memo lives on
    the load instance and holds the plan weakly (see the module note), so
    a dead load — or a plan nobody's bill holds any more — frees its
    geometry immediately instead of pinning it through a global table.
    """
    observed = perfconfig.observability_enabled()
    periods_key = tuple(periods)
    with _PLAN_MEMO_LOCK:
        memo = getattr(load, "_plan_memo", None)
        if memo is None:
            memo = {}
            try:
                load._plan_memo = memo
                _PLAN_MEMO_OWNERS.add(load)
            except (AttributeError, TypeError):
                # slotted stand-in without the memo slot, or an
                # un-weakref-able load double; skip caching
                return SettlementPlan(load, periods)
        ref = memo.get(periods_key)
        plan = ref() if ref is not None else None
        if plan is None:
            if observed:
                _metrics.inc("settlement.plan_cache.miss")
            plan = SettlementPlan(load, periods)
            if len(memo) >= _PLANS_PER_LOAD_MAX:
                memo.clear()
            memo[periods_key] = weakref.ref(plan)
        elif observed:
            _metrics.inc("settlement.plan_cache.hit")
        return plan
