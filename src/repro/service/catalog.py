"""Process-shared, read-only pricing catalog for the service layer.

A long-running pricing service must never pay catalog-construction costs
on the request path, and must never *mutate* the :mod:`repro.perfconfig`
caches from concurrent request handlers.  :class:`ServiceCatalog` solves
both at once: contracts, loads, billing periods, price-series contexts
and settlement plans are all built **once** at startup and held strongly
for the life of the service.  After construction every request-path
lookup is a read of a frozen dict — the settlement plans are already in
each load's weak-value memo (see
:func:`repro.contracts.settlement.plan_for`), so billing a catalog load
is always a warm-path settle.

Because the catalog is frozen, the answer to a ``price`` request is a
pure function of (contract, load, detail).  The catalog therefore
settles every pair once at construction — one ``bill_many`` per load —
and keeps the wire bytes of both detail levels (:meth:`ServiceCatalog.quote`),
so serving a quote settles, encodes and serializes nothing.
:func:`encode_bill` is that canonical wire encoding.

:func:`default_catalog` assembles the five archetype contracts of
:mod:`repro.contracts.tariff_library` over a pool of synthetic
supercomputing-center loads — the same generators the scenario studies
use — which is what ``python -m repro serve`` starts with.

>>> cat = default_catalog(n_sites=1, days=7)
>>> len(cat.contract_names())
5
>>> cat.load_names()
['site00']
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.scenarios import generate_price_series, synthetic_sc_load
from ..contracts import tariff_library
from ..contracts.billing import Bill, BillingEngine
from ..contracts.components import BillingContext, ChargeDomain
from ..contracts.contract import Contract
from ..contracts.settlement import SettlementPlan, plan_for
from ..exceptions import ServiceError
from ..timeseries.calendar import BillingPeriod
from ..timeseries.series import PowerSeries

__all__ = ["ServiceCatalog", "default_catalog", "encode_bill"]

DAY_S = 86_400.0

_DETAILS = ("summary", "full")


def _check_detail(detail: str) -> None:
    if detail not in _DETAILS:
        raise ServiceError(f"unknown detail level {detail!r}; use one of {_DETAILS}")


def encode_bill(bill: Bill, detail: str = "summary") -> Dict[str, object]:
    """The canonical JSON-safe wire encoding of a settled bill.

    ``detail="summary"`` carries the grand total, the three typology
    branch totals and per-component totals; ``detail="full"`` adds every
    period with its line items.  The encoding is pure float/str/dict, so
    ``json.dumps(..., sort_keys=True)`` of two equal bills is
    byte-identical — the property the service's differential test leans
    on.

    >>> from repro.contracts.tariff_library import swiss_post_tender
    >>> from repro.timeseries.calendar import BillingPeriod
    >>> from repro.timeseries.series import PowerSeries
    >>> bill = BillingEngine().bill(
    ...     swiss_post_tender("svc"),
    ...     PowerSeries.constant(1000.0, 24, 3600.0),
    ...     [BillingPeriod("d0", 0.0, 86400.0)])
    >>> enc = encode_bill(bill)
    >>> enc["contract"], enc["currency"], enc["n_periods"]
    ('svc / post-tender formula', 'CHF', 1)
    """
    _check_detail(detail)
    component_totals: Dict[str, float] = {}
    for pb in bill.period_bills:
        for item in pb.line_items:
            component_totals[item.component] = (
                component_totals.get(item.component, 0.0) + item.amount
            )
    out: Dict[str, object] = {
        "contract": bill.contract.name,
        "currency": bill.contract.currency,
        "total": bill.total,
        "estimated": bill.estimated,
        "n_periods": len(bill.period_bills),
        "domain_totals": {d.value: bill.domain_total(d) for d in ChargeDomain},
        "component_totals": component_totals,
    }
    if detail == "full":
        out["periods"] = [
            {
                "label": pb.period.label,
                "total": pb.total,
                "energy_kwh": pb.energy_kwh,
                "peak_kw": pb.peak_kw,
                "line_items": [
                    {
                        "component": item.component,
                        "domain": item.domain.value,
                        "amount": item.amount,
                        "quantity": item.quantity,
                        "unit": item.unit,
                        "details": dict(item.details),
                    }
                    for item in pb.line_items
                ],
            }
            for pb in bill.period_bills
        ]
    return out


class ServiceCatalog:
    """Frozen pricing state shared by every request handler.

    Parameters
    ----------
    contracts:
        The priceable contracts, in catalog order.  Names must be unique
        (they are the wire identifiers).
    loads:
        Mapping of load name to metered :class:`~repro.timeseries.series.PowerSeries`.
        Every load must share one metering grid (interval, start, length).
    periods:
        The billing periods every bill settles over.
    price_seed:
        Seed for the shared real-time price realization handed to dynamic
        tariffs — one realization per load, generated at construction,
        never on the request path.

    >>> from repro.contracts.tariff_library import swiss_post_tender
    >>> from repro.timeseries.calendar import BillingPeriod
    >>> from repro.timeseries.series import PowerSeries
    >>> load = PowerSeries.constant(1000.0, 24 * 7, 3600.0)
    >>> cat = ServiceCatalog(
    ...     [swiss_post_tender("svc")], {"lab": load},
    ...     [BillingPeriod("w0", 0.0, 7 * 86400.0)])
    >>> round(cat.price("svc / post-tender formula", "lab").total, 2)
    10718.4
    """

    def __init__(
        self,
        contracts: Sequence[Contract],
        loads: Mapping[str, PowerSeries],
        periods: Sequence[BillingPeriod],
        price_seed: int = 0,
    ) -> None:
        if not contracts:
            raise ServiceError("a service catalog needs at least one contract")
        if not loads:
            raise ServiceError("a service catalog needs at least one load")
        if not periods:
            raise ServiceError("a service catalog needs at least one billing period")
        names = [c.name for c in contracts]
        if len(set(names)) != len(names):
            raise ServiceError("contract names must be unique (they are wire ids)")
        self._contracts: Dict[str, Contract] = {c.name: c for c in contracts}
        self._loads: Dict[str, PowerSeries] = dict(loads)
        self._periods: Tuple[BillingPeriod, ...] = tuple(periods)
        self._price_seed = int(price_seed)
        self._engine = BillingEngine()
        first = next(iter(self._loads.values()))
        for name, load in self._loads.items():
            if (
                load.interval_s != first.interval_s
                or load.start_s != first.start_s
                or len(load) != len(first)
            ):
                raise ServiceError(
                    f"catalog loads must share one metering grid; load {name!r} "
                    f"differs from the first"
                )
        needs_prices = any(c.has_component("dynamic") for c in contracts)
        self._contexts: Dict[str, Optional[BillingContext]] = {}
        self._plans: Dict[str, SettlementPlan] = {}
        self._quotes: Dict[Tuple[str, str, str], bytes] = {}
        for name, load in self._loads.items():
            ctx: Optional[BillingContext] = None
            if needs_prices:
                ctx = BillingContext(
                    price_series=generate_price_series(load, None, self._price_seed)
                )
            self._contexts[name] = ctx
            # Built once, held strongly: the load's weak-value plan memo
            # now stays warm for the life of the catalog.
            self._plans[name] = plan_for(load, self._periods)
            bills = self._engine.bill_many(
                contracts, load, self._periods, context=ctx
            )
            for contract, bill in zip(contracts, bills):
                for detail in _DETAILS:
                    self._quotes[contract.name, name, detail] = json.dumps(
                        encode_bill(bill, detail), sort_keys=True
                    ).encode("utf-8")

    # -- lookups ----------------------------------------------------------

    @property
    def periods(self) -> Tuple[BillingPeriod, ...]:
        """The billing periods every service bill settles over."""
        return self._periods

    @property
    def engine(self) -> BillingEngine:
        """The shared :class:`~repro.contracts.billing.BillingEngine`."""
        return self._engine

    @property
    def price_seed(self) -> int:
        """Seed of the shared price realization handed to dynamic tariffs."""
        return self._price_seed

    def contract_names(self) -> List[str]:
        """Wire identifiers of the priceable contracts, in catalog order."""
        return list(self._contracts)

    def load_names(self) -> List[str]:
        """Wire identifiers of the metered loads, in catalog order."""
        return list(self._loads)

    def contract(self, name: str) -> Contract:
        """The named contract; unknown names raise a listing error."""
        try:
            return self._contracts[name]
        except KeyError:
            raise ServiceError(
                f"unknown contract {name!r}; catalog has {sorted(self._contracts)}"
            ) from None

    def load(self, name: str) -> PowerSeries:
        """The named metered load; unknown names raise a listing error."""
        try:
            return self._loads[name]
        except KeyError:
            raise ServiceError(
                f"unknown load {name!r}; catalog has {sorted(self._loads)}"
            ) from None

    def context(self, load_name: str) -> Optional[BillingContext]:
        """The load's pre-built billing context (``None`` when no contract
        in the catalog needs real-time prices)."""
        self.load(load_name)  # raise the listing error for unknown names
        return self._contexts[load_name]

    def plan(self, load_name: str) -> SettlementPlan:
        """The load's strongly-held settlement plan (built at startup)."""
        self.load(load_name)
        return self._plans[load_name]

    # -- pricing ----------------------------------------------------------

    def price(self, contract_name: str, load_name: str) -> Bill:
        """Settle one catalog load under one catalog contract.

        This is the *direct-call reference path*: every :meth:`quote` is
        bit-identical to encoding the bill this method returns (the
        differential test in ``tests/test_service.py`` enforces it).
        """
        return self._engine.bill(
            self.contract(contract_name),
            self.load(load_name),
            self._periods,
            context=self.context(load_name),
        )

    def price_many(self, contract_names: Sequence[str], load_name: str) -> List[Bill]:
        """Settle one catalog load under many contracts (shared plan)."""
        return self._engine.bill_many(
            [self.contract(n) for n in contract_names],
            self.load(load_name),
            self._periods,
            context=self.context(load_name),
        )

    def quote(
        self, contract_name: str, load_name: str, detail: str = "summary"
    ) -> bytes:
        """The served answer to one ``price`` request, settled at construction.

        Equal to ``json.dumps(encode_bill(self.price(contract_name,
        load_name), detail), sort_keys=True)`` as UTF-8 bytes.  Unknown
        detail levels and names raise a listing
        :class:`~repro.exceptions.ServiceError`.

        >>> cat = default_catalog(n_sites=1, days=7)
        >>> name = cat.contract_names()[0]
        >>> cat.quote(name, "site00") == json.dumps(
        ...     encode_bill(cat.price(name, "site00")), sort_keys=True).encode()
        True
        """
        _check_detail(detail)
        self.contract(contract_name)
        self.load(load_name)
        return self._quotes[contract_name, load_name, detail]

    def describe(self) -> Dict[str, object]:
        """A JSON-safe summary of the catalog (the ``catalog`` wire op)."""
        first = next(iter(self._loads.values()))
        return {
            "contracts": [
                {
                    "name": c.name,
                    "currency": c.currency,
                    "components": [comp.name for comp in c.components],
                    "dynamic": c.has_component("dynamic"),
                }
                for c in self._contracts.values()
            ],
            "loads": [
                {
                    "name": name,
                    "n_intervals": len(load),
                    "interval_s": load.interval_s,
                    "peak_kw": float(load.max_kw()),
                    "energy_kwh": float(load.energy_kwh()),
                }
                for name, load in self._loads.items()
            ],
            "periods": [
                {"label": p.label, "start_s": p.start_s, "end_s": p.end_s}
                for p in self._periods
            ],
            "price_seed": self._price_seed,
        }


def default_catalog(
    n_sites: int = 8,
    days: int = 28,
    interval_s: float = 900.0,
    peak_mw: float = 2.0,
    seed: int = 0,
    price_seed: int = 0,
) -> ServiceCatalog:
    """The catalog ``python -m repro serve`` starts with.

    Five archetype contracts (one per
    :mod:`~repro.contracts.tariff_library` constructor) over ``n_sites``
    synthetic supercomputing-center loads and weekly billing periods.
    ``days`` must be a multiple of 7 so the weekly calendar tiles the
    load exactly.

    >>> cat = default_catalog(n_sites=2, days=7)
    >>> [p.label for p in cat.periods]
    ['w0']
    >>> sorted(cat.load_names())
    ['site00', 'site01']
    """
    if days % 7 != 0 or days <= 0:
        raise ServiceError(f"days must be a positive multiple of 7, got {days}")
    peak_kw = peak_mw * 1000.0
    contracts = [
        tariff_library.us_industrial_tou("svc", peak_kw),
        tariff_library.german_industrial("svc", peak_kw),
        tariff_library.nordic_spot_passthrough("svc"),
        tariff_library.swiss_post_tender("svc"),
        tariff_library.us_federal_with_emergency("svc", peak_kw),
    ]
    loads = {
        f"site{i:02d}": synthetic_sc_load(
            peak_mw, n_days=days, interval_s=interval_s, seed=seed + i
        )
        for i in range(n_sites)
    }
    periods = [
        BillingPeriod(f"w{w}", w * 7 * DAY_S, (w + 1) * 7 * DAY_S)
        for w in range(days // 7)
    ]
    return ServiceCatalog(contracts, loads, periods, price_seed=price_seed)
