"""The facility × contract × grid scenario runner.

Most studies need the same skeleton: obtain a year of metered facility
load, obtain the grid-side context (real-time prices, emergency calls),
settle the bill, decompose it.  :func:`run_scenario` is that skeleton;
:func:`synthetic_sc_load` supplies year-scale SC load profiles directly
from a stochastic utilization model (the scheduler path is exact but
week-scale; a year of 15-minute metering is 35 040 intervals and the
studies sweep many of them).

>>> from repro.analysis.scenarios import synthetic_sc_load
>>> load = synthetic_sc_load(peak_mw=1.0, n_days=1, seed=0)
>>> len(load)  # one day of 15-minute metering
96
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np
from scipy import signal

from .. import perfconfig
from ..contracts.billing import Bill, BillingContext, BillingEngine
from ..contracts.contract import Contract
from ..contracts.emergency import EmergencyCall
from ..exceptions import AnalysisError
from ..grid.prices import PriceModel
from ..observability import metrics as _metrics
from ..timeseries.calendar import BillingPeriod
from ..timeseries.series import PowerSeries
from ..units import SECONDS_PER_HOUR
from .cost import BillDecomposition, decompose_bill

__all__ = [
    "synthetic_sc_load",
    "generate_price_series",
    "ScenarioSpec",
    "ScenarioResult",
    "run_scenario",
]


def synthetic_sc_load(
    peak_mw: float,
    n_days: int = 365,
    interval_s: float = 900.0,
    idle_fraction: float = 0.45,
    mean_utilization: float = 0.85,
    utilization_sigma: float = 0.08,
    correlation_h: float = 24.0,
    n_benchmarks: int = 2,
    benchmark_h: float = 6.0,
    n_maintenance: int = 2,
    maintenance_h: float = 12.0,
    seed: int = 0,
) -> PowerSeries:
    """A year-scale SC facility load (kW at the meter).

    Structure: an idle floor (``idle_fraction`` × peak) plus a utilization
    process filling the idle→peak range.  Utilization is a clipped AR(1)
    around ``mean_utilization`` — SCs run high and steady (the paper's
    "high system utilization" mission) with slow drifts, not diurnal
    swings.  Benchmarks pin the machine at ~peak for a few hours;
    maintenance drops it to the floor — the §3.4 events sites report to
    their ESPs.

    Parameters
    ----------
    peak_mw:
        Nameplate facility peak (MW); the paper's sites span 0.8–45 MW.
    n_days, interval_s:
        Horizon and metering cadence (default: a year at 15 minutes).
    idle_fraction:
        Idle floor as a fraction of peak.
    mean_utilization, utilization_sigma, correlation_h:
        AR(1) utilization process: mean, innovation scale, correlation
        time (hours).
    n_benchmarks, benchmark_h, n_maintenance, maintenance_h:
        Count and duration of pinned-at-peak benchmark campaigns and
        floor-level maintenance windows.
    seed:
        Seed for the load realization; equal seeds give equal series.

    Returns
    -------
    PowerSeries
        ``n_days × 86400 / interval_s`` intervals of kW at the meter.

    Raises
    ------
    AnalysisError
        On non-positive peak/horizon or out-of-range fractions.

    Examples
    --------
    Determinism and the idle floor:

    >>> import numpy as np
    >>> a = synthetic_sc_load(peak_mw=2.0, n_days=1, seed=7)
    >>> b = synthetic_sc_load(peak_mw=2.0, n_days=1, seed=7)
    >>> np.array_equal(a.values_kw, b.values_kw)
    True
    >>> a.min_kw() >= 0.45 * 2000.0 - 1e-9  # never below the idle floor
    True
    """
    if peak_mw <= 0:
        raise AnalysisError("peak must be positive")
    if not 0.0 <= idle_fraction < 1.0:
        raise AnalysisError("idle_fraction must be in [0, 1)")
    if not 0.0 < mean_utilization <= 1.0:
        raise AnalysisError("mean_utilization must be in (0, 1]")
    if n_days <= 0:
        raise AnalysisError("n_days must be positive")
    rng = np.random.default_rng(seed)
    n = int(round(n_days * 86400.0 / interval_s))
    phi = np.exp(-(interval_s / SECONDS_PER_HOUR) / correlation_h)
    eps = rng.normal(0.0, utilization_sigma * np.sqrt(1 - phi * phi), n)
    eps[0] = rng.normal(0.0, utilization_sigma)
    util = mean_utilization + signal.lfilter([1.0], [1.0, -phi], eps)
    np.clip(util, 0.0, 1.0, out=util)
    peak_kw = peak_mw * 1000.0
    floor_kw = idle_fraction * peak_kw
    values = floor_kw + util * (peak_kw - floor_kw)
    span_benchmark = max(1, int(round(benchmark_h * SECONDS_PER_HOUR / interval_s)))
    for start in rng.integers(0, max(n - span_benchmark, 1), size=n_benchmarks):
        values[start : start + span_benchmark] = 0.99 * peak_kw
    span_maint = max(1, int(round(maintenance_h * SECONDS_PER_HOUR / interval_s)))
    for start in rng.integers(0, max(n - span_maint, 1), size=n_maintenance):
        values[start : start + span_maint] = floor_kw
    return PowerSeries(values, interval_s, 0.0)


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario: a load under a contract in a grid context.

    ``price_series`` short-circuits price generation: when set, it is used
    verbatim as the real-time price signal and ``price_model`` /
    ``price_seed`` are ignored.  Paired comparisons pre-generate one
    realization and share it across every spec, so price generation is
    paid once per sweep instead of once per scenario.
    """

    name: str
    contract: Contract
    load: PowerSeries
    price_model: Optional[PriceModel] = None
    price_seed: int = 0
    emergency_calls: Sequence[EmergencyCall] = ()
    periods: Optional[Sequence[BillingPeriod]] = None
    price_series: Optional[PowerSeries] = None


@dataclass(frozen=True)
class ScenarioResult:
    """A settled scenario."""

    spec: ScenarioSpec
    bill: Bill
    decomposition: BillDecomposition

    @property
    def total(self) -> float:
        """Annual (or horizon) bill total."""
        return self.bill.total


# load (weak) -> {price_seed: default-model hourly price realization}.
# Price generation is deterministic given (span, seed), so repeated sweeps
# over one load object — the shape of every comparison/chaos harness —
# reuse the realization instead of re-synthesizing it per call.  Only the
# default :class:`PriceModel` is cached; caller-supplied models may carry
# arbitrary parameters and are regenerated each call.
_PRICE_CACHE: "weakref.WeakKeyDictionary[PowerSeries, Dict[int, PowerSeries]]" = (
    weakref.WeakKeyDictionary()
)
_PRICE_CACHE_LOCK = threading.Lock()
_PRICE_SEEDS_PER_LOAD_MAX = 16


def _clear_price_cache() -> None:
    with _PRICE_CACHE_LOCK:
        _PRICE_CACHE.clear()


perfconfig.register_cache_clearer(_clear_price_cache)


def generate_price_series(
    load: PowerSeries,
    price_model: Optional[PriceModel] = None,
    price_seed: int = 0,
) -> PowerSeries:
    """One hourly real-time price realization covering ``load``'s span.

    Default-model realizations are cached per ``(load, price_seed)`` (the
    generator is deterministic), so sweeps that rebill one load do not pay
    for price synthesis per scenario (:func:`repro.perfconfig.clear_caches`
    drops them).

    Parameters
    ----------
    load:
        The metered load whose time span the prices must cover.
    price_model:
        Optional caller-supplied model; bypasses the cache (arbitrary
        parameters cannot be keyed safely).
    price_seed:
        Seed for the price realization.

    Returns
    -------
    PowerSeries
        Hourly $/kWh prices spanning ``load`` (values carried in the
        series' kW slot).

    Notes
    -----
    With observability enabled (:func:`repro.perfconfig.observing`) each
    lookup counts ``prices.realization_cache.hit`` or ``.miss``.

    Examples
    --------
    Same load and seed → the cached realization is returned outright:

    >>> load = synthetic_sc_load(peak_mw=1.0, n_days=1, seed=0)
    >>> p1 = generate_price_series(load, price_seed=3)
    >>> p2 = generate_price_series(load, price_seed=3)
    >>> p1 is p2
    True
    >>> len(p1)  # hourly prices covering one day
    24
    """
    n_hours = int(np.ceil(load.duration_s / SECONDS_PER_HOUR))
    observed = perfconfig.observability_enabled()
    if price_model is not None:
        return price_model.generate(n_hours, 3600.0, load.start_s, seed=price_seed)
    with _PRICE_CACHE_LOCK:
        try:
            per_load = _PRICE_CACHE.setdefault(load, {})
        except TypeError:  # un-weakref-able load stand-in; skip caching
            per_load = None
        if per_load is not None:
            cached = per_load.get(price_seed)
            if cached is not None:
                if observed:
                    _metrics.inc("prices.realization_cache.hit")
                return cached
    if observed:
        _metrics.inc("prices.realization_cache.miss")
    prices = PriceModel().generate(n_hours, 3600.0, load.start_s, seed=price_seed)
    if per_load is not None:
        with _PRICE_CACHE_LOCK:
            if len(per_load) >= _PRICE_SEEDS_PER_LOAD_MAX:
                per_load.clear()
            per_load[price_seed] = prices
    return prices


def run_scenario(spec: ScenarioSpec, fastpath: bool = True) -> ScenarioResult:
    """Settle one scenario.

    A price series is generated (hourly, covering the load's span) only
    when the contract holds a dynamic component or a model is supplied —
    price generation is not free and fixed-tariff scenarios do not need
    it.  A pre-generated ``spec.price_series`` bypasses generation
    entirely.  ``fastpath`` is forwarded to
    :meth:`~repro.contracts.billing.BillingEngine.bill`.

    Parameters
    ----------
    spec:
        The scenario: load, contract, grid context, billing periods.
    fastpath:
        ``False`` forces the legacy per-(component, period) settlement
        loop (the reference implementation).

    Returns
    -------
    ScenarioResult
        The settled bill plus its component decomposition.

    Examples
    --------
    A day of load under a flat tariff: the bill total equals energy ×
    rate (one explicit period spanning the day):

    >>> from repro.contracts.contract import Contract
    >>> from repro.contracts.tariffs import FixedTariff
    >>> from repro.timeseries.calendar import BillingPeriod
    >>> load = synthetic_sc_load(peak_mw=1.0, n_days=1, seed=0)
    >>> contract = Contract("flat", [FixedTariff(rate_per_kwh=0.10)])
    >>> spec = ScenarioSpec("demo", contract, load,
    ...                     periods=[BillingPeriod("day", 0.0, 86400.0)])
    >>> result = run_scenario(spec)
    >>> round(result.total, 2) == round(0.10 * load.energy_kwh(), 2)
    True
    """
    context = BillingContext(emergency_calls=tuple(spec.emergency_calls))
    if spec.price_series is not None:
        context.price_series = spec.price_series
    elif spec.contract.has_component("dynamic") or spec.price_model is not None:
        context.price_series = generate_price_series(
            spec.load, spec.price_model, spec.price_seed
        )
    engine = BillingEngine()
    bill = engine.bill(spec.contract, spec.load, spec.periods, context, fastpath=fastpath)
    return ScenarioResult(spec=spec, bill=bill, decomposition=decompose_bill(bill))
