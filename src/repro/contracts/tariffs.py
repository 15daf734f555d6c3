"""kWh-domain contract components: the tariff branch of the typology.

§3.2.1: tariffs map to a price per kWh and are fixed, time-of-use, or
dynamically variable.  §3.2.4 additionally observes two sites holding a
fixed tariff with a time-of-use *service charge* on top, which
:class:`TOUServiceCharge` models.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, TYPE_CHECKING, Tuple

import numpy as np

from .. import perfconfig
from ..exceptions import (
    BillingError,
    IntervalMismatchError,
    TariffError,
    TimeSeriesError,
)
from ..observability import metrics as _metrics
from ..timeseries.calendar import BillingPeriod, SimCalendar, TOUWindow
from ..timeseries.resample import align
from ..timeseries.series import PowerSeries
from .components import (
    BillingContext,
    ChargeDomain,
    ComponentMatrix,
    ContractComponent,
    LineItem,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .columnar import PopulationPlan
    from .settlement import SettlementPlan

#: Bound on distinct load geometries cached per tariff instance.
_RATES_CACHE_MAX = 128

__all__ = ["FixedTariff", "TOUTariff", "DynamicTariff", "TOUServiceCharge"]


def _check_rate(rate: float, what: str) -> float:
    rate = float(rate)
    if not np.isfinite(rate) or rate < 0.0:
        raise TariffError(f"{what} must be a finite non-negative $/kWh rate, got {rate!r}")
    return rate


class FixedTariff(ContractComponent):
    """A fixed price per kWh through the contractual period.

    The dominant component in the survey (8 of 10 sites).  Encourages
    energy efficiency but provides no incentive for demand-side management.
    """

    domain = ChargeDomain.ENERGY_KWH

    def __init__(self, rate_per_kwh: float, name: str = "fixed energy") -> None:
        self.rate_per_kwh = _check_rate(rate_per_kwh, "fixed tariff rate")
        self.name = name

    def _line_item(self, energy_kwh: float) -> LineItem:
        return LineItem(
            component=self.name,
            domain=self.domain,
            amount=energy_kwh * self.rate_per_kwh,
            quantity=energy_kwh,
            unit="kWh",
            details={"rate_per_kwh": self.rate_per_kwh},
        )

    def charge_periods(
        self,
        plan: "SettlementPlan",
        context: Optional[BillingContext] = None,
    ) -> List[LineItem]:
        """Single pass: per-period energies from the plan's shared views."""
        if (
            self.metering_interval_s is not None
            or type(self).metered is not ContractComponent.metered
        ):  # pragma: no cover - only reachable via exotic subclassing
            return super().charge_periods(plan, context)
        return [
            self._line_item(plan.period_energy_kwh(k))
            for k in range(plan.n_periods)
        ]

    def charge_matrix(
        self,
        plan: "PopulationPlan",
        context: Optional[BillingContext] = None,
    ) -> Optional[ComponentMatrix]:
        """Columnar kernel: the whole population is one scaled energy matrix.

        Each entry of the cached per-(site, period) energy matrix times the
        flat rate — the same multiply the scalar path performs per period.
        """
        if self.metering_interval_s is not None or not self._columnar_eligible(
            FixedTariff
        ):
            return None
        energy = plan.period_energy_kwh()
        return ComponentMatrix(energy * self.rate_per_kwh, energy, "kWh")

    def charge(
        self,
        series: PowerSeries,
        period: BillingPeriod,
        context: Optional[BillingContext] = None,
    ) -> LineItem:
        return self._line_item(series.energy_kwh())

    def typology_labels(self) -> Sequence[str]:
        return ("fixed",)

    def describe(self) -> str:
        return f"{self.name}: {self.rate_per_kwh:.4f}/kWh flat"


class TOUTariff(ContractComponent):
    """A time-of-use tariff: contractually fixed windows, each with a rate.

    Windows are evaluated in order; the first matching window prices an
    interval, and intervals matched by no window fall to ``default_rate``.
    Seasonal pricing and day/night pricing (the variants the survey found)
    are both expressible through :class:`~repro.timeseries.TOUWindow`.
    """

    domain = ChargeDomain.ENERGY_KWH

    def __init__(
        self,
        windows: Sequence[Tuple[TOUWindow, float]],
        default_rate_per_kwh: float,
        name: str = "time-of-use energy",
    ) -> None:
        if not windows:
            raise TariffError("a TOU tariff requires at least one window")
        self.windows: List[Tuple[TOUWindow, float]] = [
            (w, _check_rate(r, f"TOU rate for window {w.name!r}")) for w, r in windows
        ]
        self.default_rate_per_kwh = _check_rate(default_rate_per_kwh, "TOU default rate")
        self.name = name
        # geometry-keyed rate-vector cache; valid because rates depend only
        # on the calendar position of each interval, never on load values.
        # The window list is treated as immutable once the tariff bills;
        # call clear_rate_cache() after any (discouraged) in-place edit.
        self._rates_cache: Dict[Tuple[float, float, int], np.ndarray] = {}

    def clear_rate_cache(self) -> None:
        """Drop memoized rate vectors (after in-place window edits)."""
        self._rates_cache.clear()

    def rates_for(self, series: PowerSeries) -> np.ndarray:
        """Per-interval $/kWh rates for ``series`` under this tariff.

        Memoized per load geometry ``(interval_s, start_s, n)`` — TOU/
        seasonal masks are computed once per geometry, not once per billing
        period per bill.  The returned array is read-only.
        """
        key = (series.interval_s, series.start_s, len(series))
        observed = perfconfig.observability_enabled()
        cached = self._rates_cache.get(key)
        if cached is not None:
            if observed:
                _metrics.inc("tariff.rate_cache.hit")
            return cached
        if observed:
            _metrics.inc("tariff.rate_cache.miss")
        calendar = SimCalendar.for_series(series)
        n = len(series)
        rates = np.full(n, self.default_rate_per_kwh)
        assigned = np.zeros(n, dtype=bool)
        for window, rate in self.windows:
            m = window.mask(calendar, n) & ~assigned
            rates[m] = rate
            assigned |= m
        rates.setflags(write=False)
        if len(self._rates_cache) >= _RATES_CACHE_MAX:
            self._rates_cache.clear()
        self._rates_cache[key] = rates
        return rates

    def _line_item(self, amount: float, energy: float) -> LineItem:
        return LineItem(
            component=self.name,
            domain=self.domain,
            amount=amount,
            quantity=energy,
            unit="kWh",
            details={
                "effective_rate_per_kwh": amount / energy if energy else 0.0,
                "n_windows": float(len(self.windows)),
            },
        )

    def charge_periods(
        self,
        plan: "SettlementPlan",
        context: Optional[BillingContext] = None,
    ) -> List[LineItem]:
        """Single pass: full-horizon rate/energy arrays, reduced per period.

        The rate vector and per-interval energies are computed once over
        the whole load (both cached), and every period's line item is a dot
        product over a contiguous segment view — no per-period slicing,
        calendar rebuild or mask computation.  Segment views contain the
        same bits the legacy per-period arrays held, so amounts agree
        bit-for-bit.
        """
        if (
            self.metering_interval_s is not None
            or type(self).metered is not ContractComponent.metered
        ):  # pragma: no cover - only reachable via exotic subclassing
            return super().charge_periods(plan, context)
        load = plan.load
        rates = self.rates_for(load)
        energy_per_interval = load.energy_per_interval_kwh()
        items: List[LineItem] = []
        for k in range(plan.n_periods):
            i0, i1 = plan.native_bounds(k)
            seg_energy = energy_per_interval[i0:i1]
            amount = float(np.dot(rates[i0:i1], seg_energy))
            energy = float(seg_energy.sum())
            items.append(self._line_item(amount, energy))
        return items

    def charge_matrix(
        self,
        plan: "PopulationPlan",
        context: Optional[BillingContext] = None,
    ) -> Optional[ComponentMatrix]:
        """Columnar kernel: period-partitioned matmul against shared rates.

        The rate vector depends only on the calendar geometry, so one
        ``rates_for`` call on the population's zero template series prices
        every site (sharing the geometry-keyed cache with scalar bills on
        the same grid).  Each period is then a matrix–vector product of the
        energy-segment matrix with the rate segment.
        """
        if self.metering_interval_s is not None or not self._columnar_eligible(
            TOUTariff
        ):  # pragma: no cover - only reachable via exotic subclassing
            return None
        rates = self.rates_for(plan.template_series())
        energy = plan.energy_matrix_kwh()
        amounts = np.empty((plan.n_sites, plan.n_periods))
        for k in range(plan.n_periods):
            i0, i1 = plan.native_bounds(k)
            amounts[:, k] = energy[:, i0:i1] @ rates[i0:i1]
        return ComponentMatrix(amounts, plan.period_energy_kwh(), "kWh")

    def charge(
        self,
        series: PowerSeries,
        period: BillingPeriod,
        context: Optional[BillingContext] = None,
    ) -> LineItem:
        rates = self.rates_for(series)
        energy_per_interval = series.energy_per_interval_kwh()
        amount = float(np.dot(rates, energy_per_interval))
        energy = float(energy_per_interval.sum())
        return self._line_item(amount, energy)

    def typology_labels(self) -> Sequence[str]:
        return ("variable",)

    def describe(self) -> str:
        names = ", ".join(w.name for w, _ in self.windows)
        return f"{self.name}: TOU windows [{names}], default {self.default_rate_per_kwh:.4f}/kWh"


class TOUServiceCharge(TOUTariff):
    """A time-of-use *service charge* applied on top of another tariff.

    §3.2.4: "two of the sites have both a fixed and a variable rate
    component ... a variable service-charge is applied on top of their
    fixed rate tariff depending on the time of use."  Pricing-wise it is a
    TOU tariff (typically with a zero default rate); it exists as its own
    type so contracts read the way the survey describes them.
    """

    def __init__(
        self,
        windows: Sequence[Tuple[TOUWindow, float]],
        default_rate_per_kwh: float = 0.0,
        name: str = "time-of-use service charge",
    ) -> None:
        super().__init__(windows, default_rate_per_kwh, name=name)


class DynamicTariff(ContractComponent):
    """A dynamically variable tariff: price set in (near) real time.

    §3.2.1: "the kWh price of electricity is subject to real-time
    communication between the consumer and the provider."  The price signal
    arrives through :class:`~repro.contracts.components.BillingContext` as a
    series of $/kWh values; a fixed retail adder and a price floor model
    the supplier's margin and regulatory minimum.
    """

    domain = ChargeDomain.ENERGY_KWH

    def __init__(
        self,
        adder_per_kwh: float = 0.0,
        floor_per_kwh: float = 0.0,
        name: str = "dynamic energy",
    ) -> None:
        self.adder_per_kwh = _check_rate(adder_per_kwh, "dynamic tariff adder")
        self.floor_per_kwh = _check_rate(floor_per_kwh, "dynamic tariff floor")
        self.name = name

    def _line_item(self, rate: np.ndarray, energy_per_interval: np.ndarray) -> LineItem:
        """Price one period given its effective rate and energy vectors.

        Both the legacy per-period path and the single-pass fast path feed
        this with elementwise-identical arrays, so the dot products (and
        therefore the line amounts) agree bit-for-bit.
        """
        amount = float(np.dot(rate, energy_per_interval))
        energy = float(energy_per_interval.sum())
        return LineItem(
            component=self.name,
            domain=self.domain,
            amount=amount,
            quantity=energy,
            unit="kWh",
            details={
                "effective_rate_per_kwh": amount / energy if energy else 0.0,
                "mean_price_per_kwh": float(rate.mean()),
                "max_price_per_kwh": float(rate.max()),
            },
        )

    def charge_periods(
        self,
        plan: "SettlementPlan",
        context: Optional[BillingContext] = None,
    ) -> List[LineItem]:
        """Single pass: align load and prices once, reduce per period.

        The legacy path re-sliced the price series and re-aligned (i.e.
        resampled) the load for *every* billing period.  Here the full-
        horizon load/price pair is aligned once and each period becomes a
        pair of contiguous segment views.  Because block-mean resampling
        anchors its blocks on interval edges, a period whose edges land on
        the aligned (coarse) grid sees exactly the blocks the per-period
        resample would have produced, so amounts agree bit-for-bit.  Any
        geometry where that guarantee would not hold — misaligned period
        edges, partial overlap, non-integer interval ratios — falls back
        to the legacy per-period computation.
        """
        if (
            self.metering_interval_s is not None
            or type(self).metered is not ContractComponent.metered
            or context is None
            or context.price_series is None
        ):
            return super().charge_periods(plan, context)
        prices = context.price_series
        if any(
            not (prices.start_s <= p.start_s and prices.end_s >= p.end_s)
            for p in plan.periods
        ):
            # per-period path raises the exact coverage BillingError
            return super().charge_periods(plan, context)
        try:
            load, price = align(plan.load, prices)
            bounds = [load.interval_bounds(p.start_s, p.end_s) for p in plan.periods]
        except (IntervalMismatchError, TimeSeriesError):
            return super().charge_periods(plan, context)
        n = len(load)
        if any(not (0 <= i0 < i1 <= n) for i0, i1 in bounds):
            return super().charge_periods(plan, context)
        rate = np.maximum(price.values_kw + self.adder_per_kwh, self.floor_per_kwh)
        energy_per_interval = load.energy_per_interval_kwh()
        return [
            self._line_item(rate[i0:i1], energy_per_interval[i0:i1])
            for i0, i1 in bounds
        ]

    def charge_matrix(
        self,
        plan: "PopulationPlan",
        context: Optional[BillingContext] = None,
    ) -> Optional[ComponentMatrix]:
        """Columnar kernel: align the price signal once, price all sites.

        Mirrors the scalar fast path's align-once strategy: the population's
        zero template series is aligned against the price series to learn
        the settlement grid, then the population matrix is cropped/block-
        meaned onto that grid and each period priced as a matrix–vector
        product with the effective rate segment.  Any geometry the aligned
        reshape cannot reproduce exactly — non-integer interval ratios,
        crop offsets off the coarse grid, missing price coverage — returns
        ``None`` so the scalar fallback reproduces the legacy numerics (and
        its exact coverage errors).
        """
        if (
            self.metering_interval_s is not None
            or not self._columnar_eligible(DynamicTariff)
            or context is None
            or context.price_series is None
        ):
            return None
        prices = context.price_series
        if any(
            not (prices.start_s <= p.start_s and prices.end_s >= p.end_s)
            for p in plan.periods
        ):
            return None  # scalar fallback raises the exact coverage error
        pop = plan.population
        try:
            load, price = align(plan.template_series(), prices)
            bounds = [load.interval_bounds(p.start_s, p.end_s) for p in plan.periods]
        except (IntervalMismatchError, TimeSeriesError):
            return None
        n = len(load)
        if any(not (0 <= i0 < i1 <= n) for i0, i1 in bounds):
            return None
        ratio = load.interval_s / pop.interval_s
        k = int(round(ratio))
        rel = (load.start_s - pop.start_s) / pop.interval_s
        off = int(round(rel))
        if (
            abs(ratio - k) > 1e-9
            or k < 1
            or abs(rel - off) > 1e-9
            or off < 0
            or off % k != 0
            or off + n * k > pop.n_intervals
        ):
            return None
        if k == 1 and off == 0 and n == pop.n_intervals:
            energy = plan.energy_matrix_kwh()
        else:
            window = pop.loads_kw[:, off : off + n * k]
            if k > 1:
                window = window.reshape(pop.n_sites, n, k).mean(axis=2)
            energy = window * (load.interval_s / 3600.0)
        rate = np.maximum(price.values_kw + self.adder_per_kwh, self.floor_per_kwh)
        amounts = np.empty((pop.n_sites, plan.n_periods))
        quantities = np.empty((pop.n_sites, plan.n_periods))
        for j, (i0, i1) in enumerate(bounds):
            seg = energy[:, i0:i1]
            amounts[:, j] = seg @ rate[i0:i1]
            quantities[:, j] = seg.sum(axis=1)
        return ComponentMatrix(amounts, quantities, "kWh")

    def charge(
        self,
        series: PowerSeries,
        period: BillingPeriod,
        context: Optional[BillingContext] = None,
    ) -> LineItem:
        if context is None or context.price_series is None:
            raise BillingError(
                f"{self.name}: a dynamic tariff requires context.price_series"
            )
        prices = context.price_series
        if not (prices.start_s <= period.start_s and prices.end_s >= period.end_s):
            raise BillingError(
                f"{self.name}: price series does not cover billing period "
                f"{period.label!r}"
            )
        load, price = align(series, prices.slice_seconds(period.start_s, period.end_s))
        rate = np.maximum(price.values_kw + self.adder_per_kwh, self.floor_per_kwh)
        return self._line_item(rate, load.energy_per_interval_kwh())

    def typology_labels(self) -> Sequence[str]:
        return ("dynamic",)

    def describe(self) -> str:
        return (
            f"{self.name}: real-time price + {self.adder_per_kwh:.4f}/kWh adder "
            f"(floor {self.floor_per_kwh:.4f}/kWh)"
        )
