"""The settlement fast path's equivalence contract, enforced.

The single-pass settlement (shared :class:`SettlementPlan`, vectorized
``charge_periods``, calendar/rate caches) must be *indistinguishable* from
the legacy per-(component, period) loop: every line item within 1e-9
absolute, every audit figure identical, every decomposition identical.
These tests compare the two paths differentially across the whole tariff
library, several load geometries, and hypothesis-generated loads.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import perfconfig
from repro.analysis.comparison import compare_contracts
from repro.analysis.scenarios import synthetic_sc_load
from repro.analysis.sweep import sweep_map
from repro.contracts import (
    Bill,
    BillingContext,
    BillingEngine,
    ChargeDomain,
    Contract,
    DemandCharge,
    EmergencyCall,
    FixedTariff,
    PeakMetering,
    Powerband,
    SettlementPlan,
    TOUTariff,
    german_industrial,
    nordic_spot_passthrough,
    plan_for,
    swiss_post_tender,
    us_federal_with_emergency,
    us_industrial_tou,
)
from repro.exceptions import BillingError, MeteringError
from repro.timeseries import BillingPeriod, PowerSeries, TOUWindow
from repro.timeseries.calendar import SimCalendar, monthly_billing_periods

DAY_S = 86_400.0
TOL = 1e-9


def _tariff_library():
    return {
        "us_industrial_tou": us_industrial_tou("SC", peak_kw=15_000.0),
        "german_industrial": german_industrial("SC", peak_kw=15_000.0),
        "nordic_spot_passthrough": nordic_spot_passthrough("SC"),
        "swiss_post_tender": swiss_post_tender("SC"),
        "us_federal_with_emergency": us_federal_with_emergency("SC", peak_kw=15_000.0),
    }


def _context(load: PowerSeries) -> BillingContext:
    rng = np.random.default_rng(11)
    prices = PowerSeries(
        0.02 + 0.05 * rng.random(len(load)), load.interval_s, load.start_s
    )
    calls = (
        EmergencyCall(2 * DAY_S + 3600.0, 2 * DAY_S + 3 * 3600.0, 9_000.0),
        EmergencyCall(40 * DAY_S + 1800.0, 40 * DAY_S + 2 * 3600.0, 8_000.0),
    )
    return BillingContext(price_series=prices, emergency_calls=calls)


def assert_bills_equivalent(fast: Bill, legacy: Bill, tol: float = TOL) -> None:
    """Every period, line item, audit figure and share agrees to ``tol``."""
    assert len(fast.period_bills) == len(legacy.period_bills)
    for fp, lp in zip(fast.period_bills, legacy.period_bills):
        assert fp.period == lp.period
        assert fp.energy_kwh == pytest.approx(lp.energy_kwh, abs=tol)
        assert fp.peak_kw == pytest.approx(lp.peak_kw, abs=tol)
        assert len(fp.line_items) == len(lp.line_items)
        for fi, li in zip(fp.line_items, lp.line_items):
            assert fi.component == li.component
            assert fi.domain is li.domain
            assert abs(fi.amount - li.amount) <= tol, (
                fi.component,
                fi.amount,
                li.amount,
            )
            assert abs(fi.quantity - li.quantity) <= tol
    assert fast.total == pytest.approx(legacy.total, abs=tol * max(len(fast.period_bills), 1))
    for domain in ChargeDomain:
        assert fast.domain_total(domain) == pytest.approx(
            legacy.domain_total(domain), rel=1e-12, abs=tol * 12
        )
    if legacy.total > 0:
        for domain in ChargeDomain:
            assert fast.domain_share(domain) == pytest.approx(
                legacy.domain_share(domain), rel=1e-9
            )


class TestTariffLibraryDifferential:
    """Fast vs legacy across every archetype × several load geometries."""

    @pytest.mark.parametrize("interval_s", [900.0, 1800.0, 3600.0])
    @pytest.mark.parametrize("name", sorted(_tariff_library()))
    def test_archetype_equivalence(self, name, interval_s):
        contract = _tariff_library()[name]
        load = synthetic_sc_load(
            15.0, n_days=91, interval_s=interval_s, seed=5
        )
        periods = [
            BillingPeriod(f"m{m}", m * 7 * DAY_S, (m + 1) * 7 * DAY_S)
            for m in range(13)
        ]
        ctx = _context(load)
        engine = BillingEngine()
        # a demand charge metering at 15 min legitimately rejects coarser
        # telemetry — in which case both paths must reject identically.
        try:
            legacy = engine.bill(contract, load, periods, ctx, fastpath=False)
        except MeteringError:
            with pytest.raises(MeteringError):
                engine.bill(contract, load, periods, ctx)
            return
        fast = engine.bill(contract, load, periods, ctx)
        assert_bills_equivalent(fast, legacy)

    def test_annual_monthly_equivalence(self):
        """The reference configuration: annual load, monthly periods."""
        load = synthetic_sc_load(15.0, n_days=365, seed=2)
        periods = monthly_billing_periods()
        ctx = _context(load)
        engine = BillingEngine()
        for contract in _tariff_library().values():
            fast = engine.bill(contract, load, periods, ctx)
            legacy = engine.bill(contract, load, periods, ctx, fastpath=False)
            assert_bills_equivalent(fast, legacy)

    def test_equivalence_after_clear_caches(self):
        """A cold fast-path bill agrees with the warm one and the legacy loop."""
        load = synthetic_sc_load(8.0, n_days=28, seed=9)
        periods = [
            BillingPeriod(f"w{w}", w * 7 * DAY_S, (w + 1) * 7 * DAY_S)
            for w in range(4)
        ]
        contract = _tariff_library()["us_industrial_tou"]
        engine = BillingEngine()
        warm = engine.bill(contract, load, periods)
        perfconfig.clear_caches()
        cold_fast = engine.bill(contract, load, periods)
        cold_legacy = engine.bill(contract, load, periods, fastpath=False)
        assert_bills_equivalent(warm, cold_fast)
        assert_bills_equivalent(cold_fast, cold_legacy)

    def test_top_k_and_ratchet_demand_paths(self):
        """Demand-charge variants that exercise the per-period fallback."""
        load = synthetic_sc_load(12.0, n_days=84, seed=4)
        periods = [
            BillingPeriod(f"w{w}", w * 7 * DAY_S, (w + 1) * 7 * DAY_S)
            for w in range(12)
        ]
        engine = BillingEngine()
        for charge in (
            DemandCharge(10.0, metering=PeakMetering.TOP_K_MEAN, k=3),
            DemandCharge(10.0, ratchet_fraction=0.8),
            DemandCharge(10.0, demand_interval_s=1800.0, ratchet_fraction=0.6),
        ):
            contract = Contract("d", [FixedTariff(0.05), charge])
            fast = engine.bill(contract, load, periods)
            legacy = engine.bill(contract, load, periods, fastpath=False)
            assert_bills_equivalent(fast, legacy)

    def test_misaligned_period_edge_falls_back(self):
        """Period edges off the full-horizon metered grid must not break.

        Both periods are 36 h long (resampleable to 1-hour demand blocks on
        their own) but start 900 s past the hour, so the full-horizon
        single-pass shortcut is unavailable and the demand charge must fall
        back to the per-period path — producing exactly the legacy items.
        """
        load = PowerSeries(
            np.linspace(1000.0, 2000.0, 4 * 96), 900.0, 0.0
        )
        periods = [
            BillingPeriod("a", 900.0, 900.0 + 1.5 * DAY_S),
            BillingPeriod("b", 900.0 + 1.5 * DAY_S, 900.0 + 3.0 * DAY_S),
        ]
        contract = Contract(
            "d", [FixedTariff(0.05), DemandCharge(9.0, demand_interval_s=3600.0)]
        )
        engine = BillingEngine()
        fast = engine.bill(contract, load, periods)
        legacy = engine.bill(contract, load, periods, fastpath=False)
        assert_bills_equivalent(fast, legacy)


# -- hypothesis property: arbitrary loads, mixed contracts --------------------

week_loads = arrays(
    np.float64,
    7 * 96,
    elements=st.floats(min_value=0.0, max_value=40_000.0, allow_nan=False),
)

WEEK_PERIODS = [
    BillingPeriod(f"day{d}", d * DAY_S, (d + 1) * DAY_S) for d in range(7)
]


class TestFastpathProperty:
    @given(
        week_loads,
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=0.0, max_value=30.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from([900.0, 1800.0, 3600.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_fast_equals_legacy(
        self, values, energy_rate, demand_rate, ratchet, interval_s
    ):
        factor = int(interval_s / 900.0)
        load = PowerSeries(values[:: factor], interval_s, 0.0)
        tou = TOUTariff(
            windows=[(TOUWindow("peak", 8, 20, weekdays_only=True), 2.0 * energy_rate)],
            default_rate_per_kwh=energy_rate,
        )
        contract = Contract(
            "property",
            [
                FixedTariff(energy_rate),
                tou,
                DemandCharge(
                    demand_rate,
                    demand_interval_s=interval_s,
                    ratchet_fraction=ratchet,
                ),
                Powerband(30_000.0, 100.0, penalty_per_kwh_outside=0.25),
            ],
        )
        engine = BillingEngine()
        fast = engine.bill(contract, load, WEEK_PERIODS)
        legacy = engine.bill(contract, load, WEEK_PERIODS, fastpath=False)
        assert_bills_equivalent(fast, legacy)


# -- batch API ----------------------------------------------------------------


class TestBillMany:
    def test_matches_repeated_bill(self):
        load = synthetic_sc_load(15.0, n_days=182, seed=8)
        periods = [
            BillingPeriod(f"m{m}", m * 14 * DAY_S, (m + 1) * 14 * DAY_S)
            for m in range(13)
        ]
        ctx = _context(load)
        contracts = list(_tariff_library().values())
        engine = BillingEngine()
        batched = engine.bill_many(contracts, load, periods, context=ctx)
        assert len(batched) == len(contracts)
        for b, contract in zip(batched, contracts):
            single = engine.bill(contract, load, periods, ctx)
            assert_bills_equivalent(b, single)

    def test_per_contract_contexts(self):
        load = synthetic_sc_load(10.0, n_days=28, seed=1)
        periods = [
            BillingPeriod(f"w{w}", w * 7 * DAY_S, (w + 1) * 7 * DAY_S)
            for w in range(4)
        ]
        contracts = [
            us_federal_with_emergency("SC", peak_kw=10_000.0),
            swiss_post_tender("SC"),
        ]
        contexts = [_context(load), None]
        engine = BillingEngine()
        bills = engine.bill_many(contracts, load, periods, contexts=contexts)
        for b, contract, ctx in zip(bills, contracts, contexts):
            assert_bills_equivalent(b, engine.bill(contract, load, periods, ctx))

    def test_context_and_contexts_conflict(self):
        load = synthetic_sc_load(10.0, n_days=7, seed=1)
        contracts = [swiss_post_tender("SC")]
        engine = BillingEngine()
        with pytest.raises(BillingError):
            engine.bill_many(
                contracts,
                load,
                [BillingPeriod("w", 0.0, 7 * DAY_S)],
                context=BillingContext(),
                contexts=[BillingContext()],
            )
        with pytest.raises(BillingError):
            engine.bill_many(
                contracts, load, [BillingPeriod("w", 0.0, 7 * DAY_S)], contexts=[]
            )


# -- satellite guards ---------------------------------------------------------


class TestDefaultPeriodGuard:
    def test_nonzero_start_names_actual_start(self):
        load = PowerSeries(np.ones(96), 900.0, start_s=86_400.0)
        contract = swiss_post_tender("SC")
        with pytest.raises(BillingError, match=r"86400"):
            BillingEngine().bill(contract, load)

    def test_zero_start_still_defaults_to_months(self):
        load = synthetic_sc_load(10.0, n_days=365, seed=0)
        bill = BillingEngine().bill(swiss_post_tender("SC"), load)
        assert len(bill.period_bills) == 12


class TestDomainTotalsCache:
    def test_cached_totals_match_recomputation(self):
        load = synthetic_sc_load(12.0, n_days=28, seed=6)
        periods = [
            BillingPeriod(f"w{w}", w * 7 * DAY_S, (w + 1) * 7 * DAY_S)
            for w in range(4)
        ]
        contract = us_federal_with_emergency("SC", peak_kw=12_000.0)
        bill = BillingEngine().bill(contract, load, periods, _context(load))
        for domain in ChargeDomain:
            manual = sum(pb.domain_total(domain) for pb in bill.period_bills)
            assert bill.domain_total(domain) == pytest.approx(manual, rel=1e-12, abs=1e-9)
        # repeated domain_share calls hit the cache and stay consistent
        shares = [bill.domain_share(d) for d in ChargeDomain]
        assert sum(shares) == pytest.approx(1.0)
        assert shares == [bill.domain_share(d) for d in ChargeDomain]


# -- plan & calendar caching --------------------------------------------------


class TestPlanAndCalendarCaches:
    def test_plan_reused_per_load_and_periods(self):
        load = synthetic_sc_load(10.0, n_days=28, seed=3)
        periods = tuple(
            BillingPeriod(f"w{w}", w * 7 * DAY_S, (w + 1) * 7 * DAY_S)
            for w in range(4)
        )
        p1 = plan_for(load, periods)
        p2 = plan_for(load, periods)
        assert p1 is p2
        perfconfig.clear_caches()
        assert plan_for(load, periods) is not p1

    def test_calendar_memoized_per_geometry(self):
        load = synthetic_sc_load(10.0, n_days=14, seed=3)
        c1 = SimCalendar.for_series(load)
        c2 = SimCalendar.for_series(load)
        assert c1 is c2
        perfconfig.clear_caches()
        assert SimCalendar.for_series(load) is not c1

    def test_settlement_plan_requires_periods(self):
        load = synthetic_sc_load(10.0, n_days=7, seed=3)
        with pytest.raises(BillingError):
            SettlementPlan(load, [])


class TestSettlementMemo:
    """The per-plan settled-bill memo (re-settling identical triples)."""

    @staticmethod
    def _setup():
        load = synthetic_sc_load(10.0, n_days=28, seed=5)
        periods = tuple(
            BillingPeriod(f"w{w}", w * 7 * DAY_S, (w + 1) * 7 * DAY_S)
            for w in range(4)
        )
        return load, periods, BillingEngine()

    def test_identical_triple_shares_period_bills(self):
        load, periods, engine = self._setup()
        contract = us_industrial_tou("SC", peak_kw=12_000.0)
        ctx = _context(load)
        b1 = engine.bill(contract, load, periods, ctx)
        b2 = engine.bill(contract, load, periods, ctx, estimated=True)
        # period bills are memoized on the shared plan; metadata is not
        assert all(p1 is p2 for p1, p2 in zip(b1.period_bills, b2.period_bills))
        assert not b1.estimated and b2.estimated
        assert b1.total == b2.total

    def test_different_context_missed(self):
        load, periods, engine = self._setup()
        contract = us_federal_with_emergency("SC", peak_kw=12_000.0)
        ctx = _context(load)
        other = BillingContext(
            price_series=ctx.price_series,
            emergency_calls=ctx.emergency_calls[:1],
        )
        b1 = engine.bill(contract, load, periods, ctx)
        b2 = engine.bill(contract, load, periods, other)
        assert any(p1 is not p2 for p1, p2 in zip(b1.period_bills, b2.period_bills))
        # and each is right: agrees with its own legacy settlement
        assert_bills_equivalent(b2, engine.bill(contract, load, periods, other, fastpath=False))

    def test_different_contract_missed(self):
        load, periods, engine = self._setup()
        c1 = us_industrial_tou("SC", peak_kw=12_000.0)
        c2 = us_industrial_tou("SC", peak_kw=12_000.0)
        b1 = engine.bill(c1, load, periods)
        b2 = engine.bill(c2, load, periods)
        assert all(p1 is not p2 for p1, p2 in zip(b1.period_bills, b2.period_bills))
        assert b1.total == pytest.approx(b2.total, abs=TOL)


# -- the cold == warm law -----------------------------------------------------


def _same_bill(a: Bill, b: Bill) -> bool:
    """Bit-identical totals, periods and line items (``==``, no tolerance)."""
    return a.total == b.total and [
        (p.period, p.energy_kwh, p.peak_kw, p.line_items) for p in a.period_bills
    ] == [(p.period, p.energy_kwh, p.peak_kw, p.line_items) for p in b.period_bills]


class TestColdWarmLaw:
    """The caches are a speedup, never a semantic dependency.

    A result computed right after :func:`repro.perfconfig.clear_caches`
    (every calendar, rate vector, plan, settled-bill memo, price
    realization and chaos world rebuilt) is bit-identical to the same
    result computed again warm — with the same objects, which replays the
    memos, and with fresh equal objects, which replays only the shared
    geometry caches.
    """

    PERIODS = tuple(
        BillingPeriod(f"w{w}", w * 7 * DAY_S, (w + 1) * 7 * DAY_S) for w in range(4)
    )

    @pytest.mark.parametrize("name", sorted(_tariff_library()))
    def test_bill_cold_equals_warm(self, name):
        load = synthetic_sc_load(15.0, n_days=28, seed=9)
        ctx = _context(load)
        engine = BillingEngine()
        contract = _tariff_library()[name]
        perfconfig.clear_caches()
        cold = engine.bill(contract, load, self.PERIODS, ctx)
        warm = engine.bill(contract, load, self.PERIODS, ctx)
        fresh_contract = engine.bill(_tariff_library()[name], load, self.PERIODS, ctx)
        fresh_load = engine.bill(
            _tariff_library()[name],
            PowerSeries(load.values_kw.copy(), load.interval_s, load.start_s),
            self.PERIODS,
            ctx,
        )
        for other in (warm, fresh_contract, fresh_load):
            assert _same_bill(cold, other)

    def test_bill_many_cold_equals_warm(self):
        load = synthetic_sc_load(15.0, n_days=28, seed=9)
        ctx = _context(load)
        engine = BillingEngine()
        perfconfig.clear_caches()
        cold = engine.bill_many(
            list(_tariff_library().values()), load, self.PERIODS, context=ctx
        )
        warm = engine.bill_many(
            list(_tariff_library().values()), load, self.PERIODS, context=ctx
        )
        assert all(_same_bill(a, b) for a, b in zip(cold, warm))

    def test_bill_population_cold_equals_warm(self):
        from repro.analysis.population import (
            population_archetypes,
            population_context,
        )
        from repro.contracts import SitePopulation
        from repro.survey.population import synthetic_load_matrix

        n_intervals = 24 * 28
        loads, _ = synthetic_load_matrix(37, n_intervals, 3600.0, seed=3)
        ctx = population_context(n_intervals, 3600.0, seed=3)
        engine = BillingEngine()

        def settle(population):
            return [
                engine.bill_population(population, c, self.PERIODS, ctx)
                for c in population_archetypes(3600.0)
            ]

        population = SitePopulation(loads, 3600.0)
        perfconfig.clear_caches()
        cold = settle(population)
        for warm in (settle(population), settle(SitePopulation(loads, 3600.0))):
            for a, b in zip(cold, warm):
                assert np.array_equal(a.totals(), b.totals())
                assert np.array_equal(a.period_totals(), b.period_totals())
                for ma, mb in zip(a.component_matrices, b.component_matrices):
                    assert np.array_equal(ma.amounts, mb.amounts)

    def test_price_series_cold_equals_warm(self):
        from repro.analysis.scenarios import generate_price_series

        load = synthetic_sc_load(5.0, n_days=14, seed=4)
        perfconfig.clear_caches()
        cold = generate_price_series(load, price_seed=7)
        warm = generate_price_series(load, price_seed=7)
        assert warm is cold  # the realization memo replays it
        perfconfig.clear_caches()
        rebuilt = generate_price_series(load, price_seed=7)
        assert rebuilt is not cold
        assert np.array_equal(rebuilt.values_kw, cold.values_kw)
        assert (rebuilt.interval_s, rebuilt.start_s) == (cold.interval_s, cold.start_s)

    def test_chaos_sweep_cold_equals_warm(self):
        """The chaos world, response and facility memos change no result."""
        from repro.robustness.chaos import run_chaos_sweep

        grid = dict(
            dropout_rates=(0.0, 0.05),
            loss_probabilities=(0.0, 0.2),
            horizon_days=14,
            parallel=False,
        )
        perfconfig.clear_caches()
        cold = run_chaos_sweep(**grid).results
        warm = run_chaos_sweep(**grid).results
        assert cold == warm


class TestCompareContractsDifferential:
    """The paired comparison settles the same bills on both paths."""

    def test_fast_equals_legacy(self):
        load = synthetic_sc_load(15.0, n_days=365, seed=12)
        contracts = list(_tariff_library().values())
        fast = compare_contracts(load, contracts, parallel=False)
        legacy = compare_contracts(load, contracts, parallel=False, fastpath=False)
        for f, lg in zip(fast.results, legacy.results):
            assert f.spec.name == lg.spec.name
            assert_bills_equivalent(f.bill, lg.bill)


# -- sweep executor -----------------------------------------------------------


def _square(x: float) -> float:
    return x * x


class TestSweepMap:
    def test_serial_matches_list_comprehension(self):
        xs = list(range(20))
        assert sweep_map(_square, xs, parallel=False) == [x * x for x in xs]

    def test_parallel_matches_serial(self):
        xs = list(range(24))
        assert sweep_map(_square, xs, parallel=True) == [x * x for x in xs]

    def test_unpicklable_falls_back_to_serial(self):
        xs = list(range(5))
        assert sweep_map(lambda x: x + 1, xs, parallel=True) == [x + 1 for x in xs]

    def test_empty(self):
        assert sweep_map(_square, []) == []

    def test_order_preserved_with_chunks(self):
        xs = list(range(31))
        assert (
            sweep_map(_square, xs, parallel=True, max_workers=2, chunksize=3)
            == [x * x for x in xs]
        )


class TestPlanMemoLifetime:
    """The weak-value plan memo: plans live with their bills, loads die free.

    The previous global weak-key table made each load strongly reachable
    through its own plan's back-reference (plans hold their load), so
    every load ever billed stayed pinned for the life of the process —
    harmless in a one-shot study, fatal for a service pricing a stream
    of loads.  These tests enforce the replacement semantics: bills own
    their plan (so re-billing a live load stays a cache hit), and a dead
    bill + dead load free the geometry immediately.
    """

    def _weekly(self, n_weeks: int):
        return tuple(
            BillingPeriod(f"w{w}", w * 7 * DAY_S, (w + 1) * 7 * DAY_S)
            for w in range(n_weeks)
        )

    def test_dead_bills_free_their_loads(self):
        import gc
        import weakref

        engine = BillingEngine()
        contract = us_industrial_tou("SC", peak_kw=2_000.0)
        periods = self._weekly(2)
        refs = []
        for i in range(8):
            load = synthetic_sc_load(2.0, n_days=14, seed=100 + i)
            bill = engine.bill(contract, load, periods)
            assert bill._plan is not None and bill._plan.load is load
            refs.append(weakref.ref(load))
            del load, bill
        gc.collect()  # belt and braces; refcounting alone should suffice
        assert all(r() is None for r in refs)

    def test_live_bill_keeps_the_plan_shared(self):
        engine = BillingEngine()
        periods = self._weekly(2)
        load = synthetic_sc_load(2.0, n_days=14, seed=5)
        first = engine.bill(us_industrial_tou("SC", peak_kw=2_000.0), load, periods)
        second = engine.bill(german_industrial("SC", peak_kw=2_000.0), load, periods)
        assert second._plan is first._plan

    def test_load_churn_memory_is_bounded(self):
        """RSS-oriented regression: billing N loads must not retain O(N) bytes.

        Uses tracemalloc (deterministic, allocation-exact) rather than OS
        RSS so the bound holds on any allocator: after billing 160 loads
        of ~21 KB each (≈ 3.4 MB of load arrays alone, more with plan
        slices), retained growth must stay under a handful of loads —
        the old pinned-cache behavior retained all of them.
        """
        import gc
        import tracemalloc

        engine = BillingEngine()
        contract = us_industrial_tou("SC", peak_kw=2_000.0)
        periods = self._weekly(4)

        def churn(n: int, seed0: int) -> None:
            for i in range(n):
                load = synthetic_sc_load(2.0, n_days=28, seed=seed0 + i)
                engine.bill(contract, load, periods)

        churn(8, 0)  # warm calendars / rate-vector caches outside the probe
        gc.collect()
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            churn(160, 1000)
            gc.collect()
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        growth = current - base
        assert growth < 512 * 1024, (
            f"billing 160 transient loads retained {growth} bytes; "
            "the plan memo is pinning loads again"
        )

    def test_fingerprint_stable_across_billing(self):
        """A load's journal fingerprint must not depend on cache state."""
        from repro.robustness.journal import item_fingerprint

        engine = BillingEngine()
        load = synthetic_sc_load(2.0, n_days=14, seed=9)
        before = item_fingerprint(load)
        engine.bill(us_industrial_tou("SC", peak_kw=2_000.0), load, self._weekly(2))
        assert item_fingerprint(load) == before

    def test_bill_pickles_without_its_plan(self):
        import pickle

        engine = BillingEngine()
        load = synthetic_sc_load(2.0, n_days=14, seed=11)
        bill = engine.bill(
            us_industrial_tou("SC", peak_kw=2_000.0), load, self._weekly(2)
        )
        clone = pickle.loads(pickle.dumps(bill))
        assert clone._plan is None
        assert clone.total == bill.total

    def test_perfconfig_clearer_reaches_instance_memos(self):
        load = synthetic_sc_load(2.0, n_days=14, seed=13)
        periods = self._weekly(2)
        p1 = plan_for(load, periods)
        perfconfig.clear_caches()
        p2 = plan_for(load, periods)
        assert p2 is not p1
