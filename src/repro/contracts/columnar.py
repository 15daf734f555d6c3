"""Site-major columnar settlement: a population priced as one matrix.

The scalar fast path (:mod:`repro.contracts.settlement`) settles one
Python-object load at a time — fine for ten surveyed sites, hopeless for
the million-synthetic-site populations the survey generator can draw.
This module represents a population of ``n_sites`` loads sharing one
metering grid as a single ``(n_sites, n_intervals)`` float64 matrix
(:class:`SitePopulation`) plus a shared settlement geometry
(:class:`PopulationPlan`), so each contract component prices *every*
site in a handful of NumPy array ops:

* energy tariffs reduce the energy matrix per period (period-partitioned
  matmul against a population-shared rate vector);
* demand charges reduce per-period peaks with row-wise ``max`` /
  ``partition`` and vectorize the ratchet with a shifted running maximum;
* emergency-DR obligations window call excesses across all sites at once.

The engine entry point is
:meth:`repro.contracts.billing.BillingEngine.bill_population`, which
returns a :class:`PopulationBills` — per-site charge arrays plus an
on-demand materializer back to audit-grade
:class:`~repro.contracts.billing.Bill` objects.  Components without a
columnar kernel (or with a geometry a kernel cannot reproduce exactly)
fall back to the per-site scalar fast path, so ``bill_population`` is
*always* equivalent to billing each site separately; the differential
contract (relative 1e-9 with an absolute floor, ``tests/test_columnar.py``)
enforces it across every priced component family.

>>> import numpy as np
>>> from repro.contracts import BillingEngine, Contract, FixedTariff
>>> from repro.timeseries import BillingPeriod
>>> pop = SitePopulation(np.full((3, 96), 1000.0), 900.0)
>>> contract = Contract("flat", [FixedTariff(0.10)])
>>> period = BillingPeriod("day", 0.0, 86400.0)
>>> bills = BillingEngine().bill_population(pop, contract, [period])
>>> np.round(bills.totals(), 6)
array([2400., 2400., 2400.])
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import perfconfig
from ..exceptions import BillingError, TimeSeriesError
from ..observability import metrics as _metrics
from ..timeseries.calendar import BillingPeriod
from ..timeseries.series import PowerSeries
from .components import BillingContext, ChargeDomain, ComponentMatrix, ContractComponent
from .demand_charges import DemandCharge
from .settlement import plan_for

__all__ = [
    "SitePopulation",
    "PopulationPlan",
    "ComponentMatrix",
    "PopulationBills",
    "population_plan_for",
]


class SitePopulation:
    """``n_sites`` load profiles on one shared metering grid, site-major.

    The columnar counterpart of a list of
    :class:`~repro.timeseries.PowerSeries`: row ``i`` of ``loads_kw`` is
    site ``i``'s mean power per interval (kW), every row sharing the same
    ``interval_s`` / ``start_s`` grid.  The matrix is validated exactly
    like a :class:`~repro.timeseries.PowerSeries` (finite float64, frozen
    read-only) so it can be shared between contract components without
    defensive copies.

    Parameters
    ----------
    loads_kw:
        2-D array-like, shape ``(n_sites, n_intervals)``, mean power per
        interval in kW.
    interval_s:
        Interval length in seconds (positive).
    start_s:
        Simulation time of the first interval's left edge (non-negative).
    labels:
        Optional per-site labels; defaults to ``site-<i>``.

    >>> import numpy as np
    >>> pop = SitePopulation(np.ones((2, 4)), 900.0)
    >>> (pop.n_sites, pop.n_intervals, pop.label(1))
    (2, 4, 'site-1')
    >>> pop.site_series(0).energy_kwh()
    1.0
    """

    __slots__ = (
        "_loads",
        "_interval_s",
        "_start_s",
        "_labels",
        "_energy_cache",
        "_plan_memo",
        "__weakref__",
    )

    def __init__(
        self,
        loads_kw: Union[np.ndarray, Iterable[Iterable[float]]],
        interval_s: float,
        start_s: float = 0.0,
        labels: Optional[Sequence[str]] = None,
    ) -> None:
        arr = np.asarray(loads_kw, dtype=np.float64)
        if arr.ndim != 2:
            raise TimeSeriesError(
                f"population loads must be 2-D (n_sites, n_intervals), "
                f"got shape {arr.shape}"
            )
        if arr.shape[0] == 0 or arr.shape[1] == 0:
            raise TimeSeriesError(
                "a SitePopulation requires at least one site and one interval, "
                f"got shape {arr.shape}"
            )
        finite = np.isfinite(arr)
        if not finite.all():
            bad = np.argwhere(~finite)
            i, j = (int(bad[0][0]), int(bad[0][1]))
            raise TimeSeriesError(
                f"population loads must be finite: found {arr[i, j]!r} at "
                f"(site {i}, interval {j}) ({len(bad)} non-finite value(s))"
            )
        interval_s = float(interval_s)
        if not np.isfinite(interval_s) or interval_s <= 0.0:
            raise TimeSeriesError(f"interval_s must be positive, got {interval_s!r}")
        start_s = float(start_s)
        if not np.isfinite(start_s) or start_s < 0.0:
            raise TimeSeriesError(f"start_s must be non-negative, got {start_s!r}")
        if arr.base is not None or arr is loads_kw:
            arr = arr.copy()
        arr.setflags(write=False)
        if labels is not None and len(labels) != arr.shape[0]:
            raise TimeSeriesError(
                f"labels length {len(labels)} != n_sites {arr.shape[0]}"
            )
        self._loads = arr
        self._interval_s = interval_s
        self._start_s = start_s
        self._labels = tuple(labels) if labels is not None else None
        self._energy_cache: Optional[np.ndarray] = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_series(cls, series_seq: Sequence[PowerSeries]) -> "SitePopulation":
        """Stack per-site :class:`~repro.timeseries.PowerSeries` rows.

        Every series must share the same ``(interval_s, start_s, length)``
        grid; raises :class:`~repro.exceptions.TimeSeriesError` otherwise.

        >>> from repro.timeseries import PowerSeries
        >>> pop = SitePopulation.from_series(
        ...     [PowerSeries.constant(5.0, 4, 900.0),
        ...      PowerSeries.constant(7.0, 4, 900.0)])
        >>> pop.n_sites
        2
        """
        if not series_seq:
            raise TimeSeriesError("from_series requires at least one series")
        first = series_seq[0]
        for s in series_seq:
            if (
                s.interval_s != first.interval_s
                or s.start_s != first.start_s
                or len(s) != len(first)
            ):
                raise TimeSeriesError(
                    "all population series must share one metering grid: "
                    f"expected (interval_s={first.interval_s}, "
                    f"start_s={first.start_s}, n={len(first)}), got "
                    f"(interval_s={s.interval_s}, start_s={s.start_s}, n={len(s)})"
                )
        stacked = np.vstack([s.values_kw for s in series_seq])
        return cls(stacked, first.interval_s, first.start_s)

    # -- geometry ----------------------------------------------------------

    @property
    def loads_kw(self) -> np.ndarray:
        """Read-only ``(n_sites, n_intervals)`` matrix of mean power (kW)."""
        return self._loads

    @property
    def n_sites(self) -> int:
        """Number of sites (matrix rows)."""
        return int(self._loads.shape[0])

    @property
    def n_intervals(self) -> int:
        """Number of metering intervals per site (matrix columns)."""
        return int(self._loads.shape[1])

    @property
    def interval_s(self) -> float:
        """Interval length in seconds (shared by every site)."""
        return self._interval_s

    @property
    def interval_h(self) -> float:
        """Interval length in hours (used by kWh conversions)."""
        return self._interval_s / 3600.0

    @property
    def start_s(self) -> float:
        """Simulation time of the first interval's left edge (s)."""
        return self._start_s

    @property
    def end_s(self) -> float:
        """Simulation time of the last interval's right edge (s)."""
        return self._start_s + self._interval_s * self.n_intervals

    def interval_bounds(self, start_s: float, stop_s: float) -> Tuple[int, int]:
        """Interval-index bounds ``[i0, i1)`` covering ``[start_s, stop_s)``.

        Same contract as :meth:`repro.timeseries.PowerSeries.interval_bounds`:
        edges must land on the shared metering grid (1e-9 relative
        tolerance), because billing works in whole metering intervals.
        """
        for name, t in (("start_s", start_s), ("stop_s", stop_s)):
            rel = (t - self._start_s) / self._interval_s
            if abs(rel - round(rel)) > 1e-9:
                raise TimeSeriesError(
                    f"{name}={t} does not fall on an interval edge "
                    f"(interval {self._interval_s} s, origin {self._start_s} s)"
                )
        i0 = int(round((start_s - self._start_s) / self._interval_s))
        i1 = int(round((stop_s - self._start_s) / self._interval_s))
        return i0, i1

    # -- per-site access ---------------------------------------------------

    def label(self, i: int) -> str:
        """Site ``i``'s label (``site-<i>`` unless labels were provided)."""
        if self._labels is not None:
            return self._labels[i]
        return f"site-{i}"

    def site_series(self, i: int) -> PowerSeries:
        """Row ``i`` as a scalar :class:`~repro.timeseries.PowerSeries`.

        This is the bridge back to the scalar fast path — the audit
        materializer and the per-component fallback both settle through
        it.  The row is copied (PowerSeries freezes its own array).
        """
        n = self.n_sites
        if not 0 <= i < n:
            raise TimeSeriesError(f"site index {i} out of range for {n} sites")
        return PowerSeries(self._loads[i], self._interval_s, self._start_s)

    def energy_matrix_kwh(self) -> np.ndarray:
        """Energy delivered per (site, interval) in kWh, cached read-only.

        The columnar counterpart of
        :meth:`repro.timeseries.PowerSeries.energy_per_interval_kwh`; every
        kWh-domain kernel reduces segment views of this one matrix.
        """
        if self._energy_cache is None:
            # exact-identity sentinel, not a tolerance question: only an
            # interval_h of exactly 1.0 makes `loads * interval_h` a
            # bit-level no-op, so only then may the load matrix be
            # aliased instead of copied (~n_sites × n_intervals × 8
            # bytes per chunk); any nearby value must take the multiply.
            if self.interval_h == 1.0:  # reprolint: disable=RPL050
                self._energy_cache = self._loads
            else:
                energy = self._loads * self.interval_h
                energy.setflags(write=False)
                self._energy_cache = energy
        return self._energy_cache

    def site_peaks_kw(self) -> np.ndarray:
        """Per-site maximum interval-mean power (kW), as a vector."""
        return self._loads.max(axis=1)

    def __len__(self) -> int:
        return self.n_sites

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SitePopulation(n_sites={self.n_sites}, "
            f"n_intervals={self.n_intervals}, interval_s={self._interval_s:g}, "
            f"start_s={self._start_s:g})"
        )


class PopulationPlan:
    """Shared load-side geometry for settling one population over periods.

    The columnar counterpart of
    :class:`~repro.contracts.settlement.SettlementPlan`: per-period
    interval bounds are computed once on the shared grid (every site has
    the same geometry, so there is exactly one bounds list for the whole
    population), the per-(site, period) energy and peak matrices are
    cached, and coarser metering grids (demand intervals, powerband
    sampling) resample the whole matrix in one block-mean reshape.

    >>> import numpy as np
    >>> from repro.timeseries import BillingPeriod
    >>> pop = SitePopulation(np.ones((2, 8)), 900.0)
    >>> plan = PopulationPlan(pop, [BillingPeriod("h1", 0.0, 3600.0),
    ...                             BillingPeriod("h2", 3600.0, 7200.0)])
    >>> plan.native_bounds(1)
    (4, 8)
    >>> plan.period_energy_kwh()[0]
    array([1., 1.])
    """

    def __init__(
        self, population: SitePopulation, periods: Sequence[BillingPeriod]
    ) -> None:
        if not periods:
            raise BillingError("a population plan requires at least one period")
        self.population = population
        self.periods: List[BillingPeriod] = list(periods)
        n = population.n_intervals
        self._bounds: List[Tuple[int, int]] = []
        for p in self.periods:
            i0, i1 = population.interval_bounds(p.start_s, p.end_s)
            if not 0 <= i0 < i1 <= n:
                raise BillingError(
                    f"billing period {p.label!r} [{p.start_s}, {p.end_s}) s "
                    f"is outside the population span "
                    f"[{population.start_s}, {population.end_s}) s"
                )
            self._bounds.append((i0, i1))
        self._period_energy: Optional[np.ndarray] = None
        self._period_peak: Optional[np.ndarray] = None
        self._template: Optional[PowerSeries] = None
        self._resampled: dict = {}

    @property
    def n_periods(self) -> int:
        """Number of billing periods in the plan."""
        return len(self.periods)

    @property
    def n_sites(self) -> int:
        """Number of sites in the population."""
        return self.population.n_sites

    def native_bounds(self, k: int) -> Tuple[int, int]:
        """Interval-index bounds of period ``k`` on the shared native grid."""
        return self._bounds[k]

    def template_series(self) -> PowerSeries:
        """A zero :class:`~repro.timeseries.PowerSeries` on the shared grid.

        TOU rate vectors depend only on the calendar geometry, never on
        load values, so one template series lets every tariff reuse its
        geometry-keyed ``rates_for`` cache population-wide — the calendar
        masks are computed once per grid, not once per site.
        """
        if self._template is None:
            self._template = PowerSeries.zeros(
                self.population.n_intervals,
                self.population.interval_s,
                self.population.start_s,
            )
        return self._template

    def energy_matrix_kwh(self) -> np.ndarray:
        """The population's cached per-(site, interval) energy matrix (kWh)."""
        return self.population.energy_matrix_kwh()

    def period_energy_kwh(self) -> np.ndarray:
        """``(n_sites, n_periods)`` metered energy per period (kWh), cached.

        Row-wise segment sums over the same contiguous data the scalar
        plan reduces, so each entry matches
        :meth:`~repro.contracts.settlement.SettlementPlan.period_energy_kwh`
        for the corresponding site bit-for-bit.
        """
        if self._period_energy is None:
            loads = self.population.loads_kw
            h = self.population.interval_h
            out = np.empty((self.n_sites, self.n_periods))
            for k, (i0, i1) in enumerate(self._bounds):
                out[:, k] = loads[:, i0:i1].sum(axis=1)
            out *= h
            self._period_energy = out
        return self._period_energy

    def period_peak_kw(self) -> np.ndarray:
        """``(n_sites, n_periods)`` peak interval-mean power per period (kW)."""
        if self._period_peak is None:
            loads = self.population.loads_kw
            out = np.empty((self.n_sites, self.n_periods))
            for k, (i0, i1) in enumerate(self._bounds):
                out[:, k] = loads[:, i0:i1].max(axis=1)
            self._period_peak = out
        return self._period_peak

    def resampled(
        self, target_interval_s: float
    ) -> Optional[Tuple[np.ndarray, float, List[Tuple[int, int]]]]:
        """The load matrix block-meaned onto a coarser grid, or ``None``.

        Returns ``(matrix, interval_s, per-period bounds)`` when the
        target interval is an integer multiple of the native interval,
        the horizon tiles it exactly, and every period edge lands on the
        coarse grid — the exact preconditions under which the scalar fast
        path's full-horizon resample
        (:meth:`~repro.contracts.settlement.SettlementPlan.metered_full`)
        equals its per-period resamples.  Any other geometry returns
        ``None`` and the caller falls back to the scalar path.
        """
        key = float(target_interval_s)
        if key in self._resampled:
            return self._resampled[key]
        result: Optional[Tuple[np.ndarray, float, List[Tuple[int, int]]]]
        pop = self.population
        ratio = key / pop.interval_s
        k = int(round(ratio))
        if abs(ratio - k) > 1e-9 or k < 1 or pop.n_intervals % k != 0:
            result = None
        elif k == 1:
            result = (pop.loads_kw, pop.interval_s, list(self._bounds))
        elif any(i0 % k or i1 % k for i0, i1 in self._bounds):
            result = None
        else:
            coarse = pop.loads_kw.reshape(
                pop.n_sites, pop.n_intervals // k, k
            ).mean(axis=2)
            bounds = [(i0 // k, i1 // k) for i0, i1 in self._bounds]
            result = (coarse, key, bounds)
        self._resampled[key] = result
        return result


#: Populations that currently own a plan memo, so the perfconfig cache
#: clearer can reach memos that live on the instances themselves.  The
#: memo is an instance attribute rather than a global mapping because a
#: plan references its population strongly: any global population → plan
#: table — even weak-keyed — would make every key strongly reachable
#: through its own value and pin every streamed chunk for the life of
#: the process (~70 MB per 1024-site chunk, fatal at a million sites).
#: The memo's values are weak too: a strong plan entry would close a
#: population → memo → plan → population cycle that only periodic gc
#: breaks, leaving dead 70 MB chunks to pile up between collections.
#: The plan therefore lives exactly as long as someone holds it — and
#: the natural consumer, :class:`PopulationBills`, does, so billing the
#: same population under several contracts in sequence stays a cache hit.
_PLAN_MEMO_OWNERS: "weakref.WeakSet[SitePopulation]" = weakref.WeakSet()
_PLAN_MEMO_LOCK = threading.Lock()

#: Distinct period tuples cached per population before the memo resets.
_PLANS_PER_POPULATION_MAX = 8


def _clear_population_plan_memos() -> None:
    with _PLAN_MEMO_LOCK:
        for population in list(_PLAN_MEMO_OWNERS):
            population._plan_memo.clear()


perfconfig.register_cache_clearer(_clear_population_plan_memos)


def population_plan_for(
    population: SitePopulation, periods: Sequence[BillingPeriod]
) -> PopulationPlan:
    """The (cached) population plan for ``population`` over ``periods``.

    The columnar mirror of :func:`~repro.contracts.settlement.plan_for`:
    keyed by population identity and the period tuple, so billing the
    same population under several contracts — the shape of every
    archetype study — shares one geometry, one cached energy matrix and
    one set of per-period reductions instead of rebuilding them per
    contract.

    >>> import numpy as np
    >>> pop = SitePopulation(np.ones((2, 4)), 900.0)
    >>> period = BillingPeriod("hour", 0.0, 3600.0)
    >>> a = population_plan_for(pop, [period])
    >>> b = population_plan_for(pop, [period])
    >>> a is b
    True
    """
    observed = perfconfig.observability_enabled()
    periods_key = tuple(periods)
    with _PLAN_MEMO_LOCK:
        memo = getattr(population, "_plan_memo", None)
        if memo is None:
            memo = {}
            population._plan_memo = memo
            _PLAN_MEMO_OWNERS.add(population)
        ref = memo.get(periods_key)
        plan = ref() if ref is not None else None
        if plan is None:
            if observed:
                _metrics.inc("billing.population.plan_cache.miss")
            plan = PopulationPlan(population, periods)
            if len(memo) >= _PLANS_PER_POPULATION_MAX:
                memo.clear()
            memo[periods_key] = weakref.ref(plan)
        elif observed:
            _metrics.inc("billing.population.plan_cache.hit")
        return plan


def _scalar_component_matrix(
    component: ContractComponent,
    population: SitePopulation,
    periods: Sequence[BillingPeriod],
    context: Optional[BillingContext],
) -> ComponentMatrix:
    """Exact per-site fallback for components without a columnar kernel.

    Settles the component through the scalar fast path one site at a
    time — identical numerics *and* identical exceptions to billing each
    site separately, just O(n_sites) slower.  Stateful components (the
    demand-charge ratchet) are reset per site, exactly as the engine does
    at the start of each scalar bill.
    """
    n_sites = population.n_sites
    amounts = np.empty((n_sites, len(periods)))
    quantities = np.empty((n_sites, len(periods)))
    unit = ""
    for i in range(n_sites):
        if isinstance(component, DemandCharge):
            component.reset()
        plan = plan_for(population.site_series(i), periods)
        items = component.charge_periods(plan, context)
        for k, item in enumerate(items):
            amounts[i, k] = item.amount
            quantities[i, k] = item.quantity
        unit = items[0].unit
    return ComponentMatrix(amounts, quantities, unit)


class PopulationBills:
    """The result of one columnar settlement: per-site charge arrays.

    Holds one :class:`~repro.contracts.components.ComponentMatrix` per
    contract component (in contract order) plus the population's audit
    matrices (per-period energy and peaks), and derives totals and
    typology-branch decompositions as vectorized reductions.  Individual
    sites materialize back to audit-grade
    :class:`~repro.contracts.billing.Bill` objects on demand through the
    scalar fast path (:meth:`materialize`), which the differential
    contract guarantees agrees with the arrays here.

    Construction is the engine's job — call
    :meth:`~repro.contracts.billing.BillingEngine.bill_population`.

    >>> import numpy as np
    >>> from repro.contracts import BillingEngine, Contract, FixedTariff
    >>> from repro.timeseries import BillingPeriod
    >>> pop = SitePopulation(np.full((2, 4), 500.0), 900.0)
    >>> bills = BillingEngine().bill_population(
    ...     pop, Contract("flat", [FixedTariff(0.08)]),
    ...     [BillingPeriod("hour", 0.0, 3600.0)])
    >>> np.round(bills.totals(), 6)
    array([40., 40.])
    >>> bool(bills.materialize(0).total == bills.totals()[0])
    True
    """

    def __init__(
        self,
        engine,
        plan: PopulationPlan,
        contract,
        context: Optional[BillingContext],
        component_matrices: Sequence[ComponentMatrix],
    ) -> None:
        if len(component_matrices) != len(contract.components):
            raise BillingError(
                f"expected one matrix per component "
                f"({len(contract.components)}), got {len(component_matrices)}"
            )
        self._engine = engine
        # the bills own their plan: population_plan_for memoizes plans
        # only weakly, so the previous contract's bills holding the plan
        # is exactly what turns an archetype sweep into cache hits
        self._plan = plan
        self.population = plan.population
        self.contract = contract
        self.periods: List[BillingPeriod] = list(plan.periods)
        self.context = context
        self.component_matrices: Tuple[ComponentMatrix, ...] = tuple(
            component_matrices
        )
        self.period_energy_kwh = plan.period_energy_kwh()
        self.period_peak_kw = plan.period_peak_kw()
        self._period_totals: Optional[np.ndarray] = None

    @property
    def n_sites(self) -> int:
        """Number of sites billed."""
        return self.population.n_sites

    def period_totals(self) -> np.ndarray:
        """``(n_sites, n_periods)`` total charge per site and period."""
        if self._period_totals is None:
            total = np.zeros(
                (self.population.n_sites, len(self.periods))
            )
            for m in self.component_matrices:
                total += m.amounts
            self._period_totals = total
        return self._period_totals

    def totals(self) -> np.ndarray:
        """Per-site grand totals (contract currency), shape ``(n_sites,)``.

        The columnar counterpart of
        :attr:`repro.contracts.billing.Bill.total` across the population.
        """
        return self.period_totals().sum(axis=1)

    def domain_totals(self, domain: ChargeDomain) -> np.ndarray:
        """Per-site totals of one typology branch, shape ``(n_sites,)``."""
        out = np.zeros(self.population.n_sites)
        for comp, m in zip(self.contract.components, self.component_matrices):
            if comp.domain is domain:
                out += m.amounts.sum(axis=1)
        return out

    def component_amounts(self, component_name: str) -> np.ndarray:
        """``(n_sites, n_periods)`` amounts charged by one component name.

        Components sharing a name are summed, matching
        :meth:`repro.contracts.billing.Bill.component_total` semantics.
        """
        matched = [
            m.amounts
            for comp, m in zip(self.contract.components, self.component_matrices)
            if comp.name == component_name
        ]
        if not matched:
            raise BillingError(
                f"contract {self.contract.name!r} has no component named "
                f"{component_name!r}"
            )
        total = matched[0].copy()
        for m in matched[1:]:
            total += m
        return total

    def materialize(self, i: int) -> "object":
        """Site ``i``'s audit-grade :class:`~repro.contracts.billing.Bill`.

        Re-settles the site through the scalar fast path (full line-item
        details, period bills, manifest hooks); the differential contract
        guarantees the result's totals agree with :meth:`totals` to the
        columnar tolerance.
        """
        return self._engine.bill(
            self.contract,
            self.population.site_series(i),
            self.periods,
            self.context,
        )

    def iter_bills(self) -> Iterator["object"]:
        """Materialize every site's bill lazily, in site order."""
        for i in range(self.population.n_sites):
            yield self.materialize(i)

    def summary(self) -> dict:
        """Headline population figures (floats), for reports and tests."""
        totals = self.totals()
        return {
            "n_sites": float(self.population.n_sites),
            "n_periods": float(len(self.periods)),
            "population_total": float(totals.sum()),
            "mean_total": float(totals.mean()),
            "min_total": float(totals.min()),
            "max_total": float(totals.max()),
            "total_energy_kwh": float(self.period_energy_kwh.sum()),
            "max_peak_kw": float(self.period_peak_kw.max()),
        }
