"""The contract-pricing service layer, end to end.

Three contracts matter most and each gets a differential test:

* **Bit-identical serving** — every quote the catalog settles at startup,
  and so every served ``price`` response, is the exact
  ``json.dumps(..., sort_keys=True)`` bytes of encoding the direct
  :meth:`~repro.service.catalog.ServiceCatalog.price` call.
* **Deterministic admission** — the token bucket, load shedding and
  deadlines run on an injected clock, so over-rate rejection, structured
  error payloads and partial-batch accounting are exact, not flaky.
* **Audit reconciliation** — with observability on, every per-request
  ``repro-manifest-v1`` payload total matches the response that was
  returned for that request, even under concurrent load.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import perfconfig
from repro.contracts.billing import BillingEngine
from repro.exceptions import AdmissionError, ServiceError
from repro.observability import manifest as manifest_mod
from repro.observability import metrics as metrics_mod
from repro.robustness.supervisor import RetryPolicy
from repro.service import (
    AdmissionController,
    AdmissionPolicy,
    ContractPricingServer,
    MicroBatcher,
    ServiceClient,
    ToolRegistry,
    ToolSpec,
    default_catalog,
    default_registry,
    encode_bill,
)
from repro.service.tools import json_safe

SWISS = "svc / post-tender formula"


@pytest.fixture(scope="module")
def catalog():
    return default_catalog(n_sites=4, days=7, seed=3)


class _SteppingClock:
    """Deterministic clock advancing a fixed step per reading."""

    def __init__(self, step=0.0, start=0.0):
        self.now = start
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


# ---------------------------------------------------------------------------
# catalog


class TestCatalog:
    def test_default_catalog_shape(self, catalog):
        assert len(catalog.contract_names()) == 5
        assert catalog.load_names() == [f"site{i:02d}" for i in range(4)]
        assert [p.label for p in catalog.periods] == ["w0"]

    def test_unknown_names_raise_listing_errors(self, catalog):
        with pytest.raises(ServiceError, match="unknown contract"):
            catalog.contract("nope")
        with pytest.raises(ServiceError, match="unknown load"):
            catalog.load("nope")

    def test_describe_is_json_safe(self, catalog):
        text = json.dumps(catalog.describe(), sort_keys=True)
        desc = json.loads(text)
        assert len(desc["contracts"]) == 5
        assert desc["contracts"][0]["components"]

    def test_contexts_prebuilt_for_dynamic_contracts(self, catalog):
        ctx = catalog.context("site00")
        assert ctx is not None and ctx.price_series is not None

    def test_plans_held_strongly(self, catalog):
        plan = catalog.plan("site00")
        assert plan is catalog.plan("site00")

    def test_mixed_geometry_rejected(self, catalog):
        from repro.timeseries.calendar import BillingPeriod
        from repro.timeseries.series import PowerSeries

        loads = {
            "a": PowerSeries.constant(1.0, 8, 900.0),
            "b": PowerSeries.constant(1.0, 4, 900.0),
        }
        with pytest.raises(ServiceError, match="metering grid"):
            from repro.service.catalog import ServiceCatalog

            ServiceCatalog(
                [catalog.contract(SWISS)],
                loads,
                [BillingPeriod("p", 0.0, 7200.0)],
            )

    def test_days_must_tile_weeks(self):
        with pytest.raises(ServiceError, match="multiple of 7"):
            default_catalog(n_sites=1, days=10)


# ---------------------------------------------------------------------------
# wire encoding


class TestEncodeBill:
    def test_summary_and_full_are_nested(self, catalog):
        bill = catalog.price(SWISS, "site00")
        summary = encode_bill(bill)
        full = encode_bill(bill, "full")
        assert "periods" not in summary and "periods" in full
        for key, value in summary.items():
            assert full[key] == value
        assert sum(summary["component_totals"].values()) == pytest.approx(
            bill.total
        )

    def test_unknown_detail_rejected(self, catalog):
        with pytest.raises(ServiceError, match="detail"):
            encode_bill(catalog.price(SWISS, "site00"), "verbose")

    def test_json_safe_scrubs_numpy(self):
        import numpy as np

        out = json_safe({"x": np.float64(2.5), "y": np.arange(3), "z": (1, 2)})
        assert json.loads(json.dumps(out)) == {"x": 2.5, "y": [0, 1, 2], "z": [1, 2]}


# ---------------------------------------------------------------------------
# admission control (deterministic: injected clock, seeded jitter)


class TestAdmission:
    def test_over_rate_rejected_with_structured_error(self):
        clock = _SteppingClock(step=0.0, start=1.0)
        ctl = AdmissionController(
            AdmissionPolicy(rate_per_s=10.0, burst=2), clock=clock
        )
        ctl.admit().finish()
        ctl.admit().finish()
        with pytest.raises(AdmissionError) as exc_info:
            ctl.admit()
        payload = exc_info.value.payload
        assert payload["code"] == "rate_limited"
        assert payload["limit"] == {"rate_per_s": 10.0, "burst": 2}
        assert "10 req/s" in payload["message"]
        assert payload["retry_after_s"] >= 0.0

    def test_retry_after_follows_retry_policy_law(self):
        retry = RetryPolicy(base_backoff_s=1.0, backoff_factor=2.0,
                            backoff_jitter=0.0, max_backoff_s=8.0)
        ctl = AdmissionController(
            AdmissionPolicy(rate_per_s=1.0, burst=1, retry=retry),
            clock=_SteppingClock(step=0.0, start=1.0),
        )
        ctl.admit().finish()
        hints = []
        for _ in range(4):
            with pytest.raises(AdmissionError) as exc_info:
                ctl.admit()
            hints.append(exc_info.value.payload["retry_after_s"])
        # zero jitter: the capped geometric law, escalating per rejection
        assert hints == [1.0, 2.0, 4.0, 8.0]

    def test_bucket_refills_with_time(self):
        clock = _SteppingClock(step=0.0, start=0.0)
        ctl = AdmissionController(
            AdmissionPolicy(rate_per_s=2.0, burst=1), clock=clock
        )
        ctl.admit().finish()
        with pytest.raises(AdmissionError):
            ctl.admit()
        clock.now = 10.0
        ctl.admit().finish()

    def test_overload_shed_names_the_limit(self):
        ctl = AdmissionController(AdmissionPolicy(max_pending=2))
        held = [ctl.admit(), ctl.admit()]
        with pytest.raises(AdmissionError) as exc_info:
            ctl.admit()
        assert exc_info.value.payload["code"] == "overloaded"
        assert exc_info.value.payload["limit"] == {"max_pending": 2}
        for ticket in held:
            ticket.finish()

    def test_accounting_conservation_laws(self):
        ctl = AdmissionController(
            AdmissionPolicy(rate_per_s=1.0, burst=2, max_pending=2),
            clock=_SteppingClock(step=0.0, start=1.0),
        )
        first = ctl.admit()  # token 1 of 2
        second = ctl.admit()  # token 2 of 2; pending now == max_pending
        with pytest.raises(AdmissionError) as exc_info:
            ctl.admit()
        assert exc_info.value.payload["code"] == "overloaded"
        first.finish(timed_out=True)
        with pytest.raises(AdmissionError) as exc_info:  # bucket is dry now
            ctl.admit()
        assert exc_info.value.payload["code"] == "rate_limited"
        second.finish(cancelled=True)
        acct = ctl.accounting()
        assert acct["n_submitted"] == 4
        assert (
            acct["n_submitted"]
            == acct["n_admitted"] + acct["n_rate_limited"] + acct["n_overloaded"]
        )
        assert (
            acct["n_admitted"]
            == acct["n_completed"]
            + acct["n_timed_out"]
            + acct["n_cancelled"]
            + acct["pending"]
        )
        assert acct["n_timed_out"] == 1 and acct["n_cancelled"] == 1
        assert acct["pending"] == 0

    def test_ticket_deadline_and_expiry(self):
        clock = _SteppingClock(step=0.0, start=100.0)
        ctl = AdmissionController(
            AdmissionPolicy(timeout_s=5.0), clock=clock
        )
        ticket = ctl.admit()
        assert ticket.deadline_s == 105.0
        assert not ticket.expired() and ticket.remaining_s() == 5.0
        clock.now = 106.0
        assert ticket.expired()
        ticket.finish(timed_out=True)
        ticket.finish(timed_out=True)  # idempotent
        assert ctl.accounting()["n_timed_out"] == 1

    def test_policy_validation(self):
        with pytest.raises(ServiceError):
            AdmissionPolicy(rate_per_s=0.0)
        with pytest.raises(ServiceError):
            AdmissionPolicy(burst=0)
        with pytest.raises(ServiceError):
            AdmissionPolicy(timeout_s=-1.0)


# ---------------------------------------------------------------------------
# quote table + micro-batcher


class TestQuoteTable:
    @staticmethod
    def _assert_every_quote_is_the_direct_encoding(catalog):
        # The quotes were settled by ``bill_many`` at construction.  Drop
        # every memo first, so each reference is a fresh ``bill`` on a
        # fresh plan rather than a replay of the memoized quote.
        perfconfig.clear_caches()
        n = 0
        for detail in ("summary", "full"):
            for c in catalog.contract_names():
                for l in catalog.load_names():
                    direct = encode_bill(catalog.price(c, l), detail)
                    assert catalog.quote(c, l, detail) == json.dumps(
                        direct, sort_keys=True
                    ).encode("utf-8"), (c, l, detail)
                    n += 1
        return n

    def test_every_quote_equals_the_direct_encoding(self, catalog):
        assert self._assert_every_quote_is_the_direct_encoding(catalog) == 40

    def test_serve_default_catalog_quotes_equal_the_direct_encoding(self):
        # The catalog ``python -m repro serve`` starts with (8 sites, 28
        # days, four weekly periods) -- the one the benchmark suite's
        # served-quote check runs on.
        served = default_catalog()
        assert len(served.periods) == 4
        assert self._assert_every_quote_is_the_direct_encoding(served) == 80


class TestMicroBatcher:
    def test_batched_result_bit_identical_to_direct(self, catalog):
        async def run():
            batcher = MicroBatcher(catalog)
            await batcher.start()
            served = await asyncio.gather(
                *[
                    batcher.price(c, l, detail)
                    for detail in ("summary", "full")
                    for c in catalog.contract_names()
                    for l in catalog.load_names()
                ]
            )
            await batcher.stop()
            return served

        served = asyncio.run(run())
        direct = [
            encode_bill(catalog.price(c, l), detail)
            for detail in ("summary", "full")
            for c in catalog.contract_names()
            for l in catalog.load_names()
        ]
        assert len(served) == len(direct) == 40
        for s, d in zip(served, direct):
            assert s == json.dumps(d, sort_keys=True).encode("utf-8")

    def test_n_bills_counts_answered_quotes(self, catalog):
        async def run():
            batcher = MicroBatcher(catalog)
            await batcher.start()
            for load in catalog.load_names():
                await batcher.price(SWISS, load)
            with pytest.raises(ServiceError):
                batcher.price("nope", "site00")
            await batcher.stop()
            return batcher

        batcher = asyncio.run(run())
        assert batcher.n_bills == len(catalog.load_names())
        assert batcher.n_batches == batcher.n_bills  # each quote answered alone
        assert batcher.settle_s_total == 0.0

    def test_unknown_names_fail_fast(self, catalog):
        async def run():
            batcher = MicroBatcher(catalog)
            await batcher.start()
            with pytest.raises(ServiceError, match="unknown contract"):
                await batcher.price("nope", "site00")
            with pytest.raises(ServiceError, match="unknown load"):
                await batcher.price(SWISS, "nope")
            for detail in ("verbose", ["full"]):
                with pytest.raises(ServiceError, match="detail"):
                    await batcher.price(SWISS, "site00", detail)
            await batcher.stop()

        asyncio.run(run())

    def test_not_running_is_an_error(self, catalog):
        async def run():
            batcher = MicroBatcher(catalog)
            with pytest.raises(ServiceError, match="not running"):
                await batcher.price(SWISS, "site00")

        asyncio.run(run())


# ---------------------------------------------------------------------------
# server protocol


async def _with_server(catalog, fn, **server_kwargs):
    server = ContractPricingServer(catalog, **server_kwargs)
    await server.start()
    client = await ServiceClient.connect(*server.address)
    try:
        return await fn(server, client)
    finally:
        await client.close()
        await server.stop()


class TestServerProtocol:
    def test_ping_catalog_tools_metrics(self, catalog):
        async def scenario(server, client):
            pong = await client.call("ping")
            assert pong == {"ok": True, "protocol": "repro-service-v1"}
            desc = await client.call("catalog")
            assert [c["name"] for c in desc["contracts"]] == (
                catalog.contract_names()
            )
            tools = await client.call("tools")
            assert {t["name"] for t in tools} >= {"price_bill", "run_study"}
            snapshot = await client.call("metrics")
            assert isinstance(snapshot, dict)

        asyncio.run(_with_server(catalog, scenario))

    def test_served_price_bit_identical_to_direct(self, catalog):
        async def scenario(server, client):
            return await asyncio.gather(
                *[
                    client.call(
                        "price",
                        {"contract": c, "load": l, "detail": detail},
                    )
                    for detail in ("summary", "full")
                    for c in catalog.contract_names()
                    for l in catalog.load_names()
                ]
            )

        served = asyncio.run(_with_server(catalog, scenario))
        direct = [
            encode_bill(catalog.price(c, l), detail)
            for detail in ("summary", "full")
            for c in catalog.contract_names()
            for l in catalog.load_names()
        ]
        assert len(served) == 40
        for s, d in zip(served, direct):
            assert json.dumps(s, sort_keys=True) == json.dumps(d, sort_keys=True)

    def test_served_price_line_is_the_sorted_key_envelope(self, catalog):
        params = {"contract": SWISS, "load": "site01", "detail": "full"}
        frames = [
            {"id": 7, "op": "price", "params": params},
            {"id": "req-\u00e9", "op": "price", "params": params},
            {"id": None, "op": "price", "params": params},
            {"id": {"b": 1, "a": [2]}, "op": "price", "params": params},
            {"id": 8, "op": "price", "params": params, "idem": "k"},
            {"id": 9, "op": "price", "params": params, "idem": "k"},  # replay
        ]

        async def scenario(server, client):
            reader, writer = await asyncio.open_connection(
                *server.address, limit=1 << 20
            )
            lines = []
            try:
                for frame in frames:
                    writer.write((json.dumps(frame) + "\n").encode("utf-8"))
                    await writer.drain()
                    lines.append(await asyncio.wait_for(reader.readline(), 5.0))
            finally:
                writer.close()
            return lines, server.idempotency.stats()

        lines, stats = asyncio.run(_with_server(catalog, scenario))
        result = encode_bill(catalog.price(SWISS, "site01"), "full")
        for frame, line in zip(frames, lines):
            envelope = {"id": frame["id"], "ok": True, "result": result}
            assert line == (json.dumps(envelope, sort_keys=True) + "\n").encode()
        assert stats["n_replayed"] == 1

    def test_serving_price_settles_nothing(self, catalog, monkeypatch):
        calls = []

        def counting(name):
            original = getattr(BillingEngine, name)

            def wrapper(self, *args, **kwargs):
                calls.append(name)
                return original(self, *args, **kwargs)

            return wrapper

        async def scenario(server, client):
            for name in ("bill", "bill_many"):
                monkeypatch.setattr(BillingEngine, name, counting(name))
            params = [
                {"contract": c, "load": l, "detail": detail}
                for detail in ("summary", "full")
                for c in catalog.contract_names()
                for l in catalog.load_names()
            ]
            return await asyncio.gather(
                *[client.call("price", p) for p in (params * 3)[:100]]
            )

        served = asyncio.run(_with_server(catalog, scenario))
        assert len(served) == 100
        assert calls == []
        catalog.price(SWISS, "site00")  # the counter does see a direct settle
        assert "bill" in calls

    def test_price_many_and_compare_and_study(self, catalog):
        async def scenario(server, client):
            many = await client.call("price_many", {"load": "site01"})
            assert many["n_requested"] == 5 and many["n_priced"] == 5
            assert many["partial"] is False and many["timed_out"] == []
            comparison = await client.call("compare", {"load": "site01"})
            assert comparison["cheapest"] == comparison["ranked"][0]["contract"]
            study = await client.call("study", {"study": "table1"})
            assert study["experiment_id"] == "table1"
            return many

        many = asyncio.run(_with_server(catalog, scenario))
        direct = [encode_bill(b) for b in
                  catalog.price_many(catalog.contract_names(), "site01")]
        assert json.dumps(many["bills"], sort_keys=True) == json.dumps(
            direct, sort_keys=True
        )

    def test_malformed_requests_get_structured_errors(self, catalog):
        async def scenario(server, client):
            bad_json = await client.request("price", {"contract": 7, "load": "x"})
            assert bad_json["ok"] is False
            assert bad_json["error"]["code"] == "invalid_params"
            unknown = await client.request("frobnicate")
            assert unknown["error"]["code"] == "unknown_op"
            assert "frobnicate" in unknown["error"]["message"]
            bad_tool = await client.request("tool", {"name": "nope"})
            assert bad_tool["error"]["code"] == "invalid_params"

        asyncio.run(_with_server(catalog, scenario))

    def test_raw_garbage_line_is_answered(self, catalog):
        async def scenario(server, client):
            client._writer.write(b"this is not json\n")
            await client._writer.drain()
            envelope = await client.request("ping")
            assert envelope["ok"] is True

        asyncio.run(_with_server(catalog, scenario))

    def test_shutdown_op_stops_the_server(self, catalog):
        async def scenario(server, client):
            result = await client.call("shutdown")
            assert result == {"stopping": True}
            await asyncio.wait_for(server.wait_stopped(), timeout=5.0)

        asyncio.run(_with_server(catalog, scenario))

    def test_over_rate_requests_rejected_on_the_wire(self, catalog):
        async def scenario(server, client):
            server.admission = AdmissionController(
                AdmissionPolicy(rate_per_s=5.0, burst=1),
                clock=_SteppingClock(step=0.0, start=1.0),
            )
            first = await client.call("price", {"contract": SWISS, "load": "site00"})
            assert first["contract"] == SWISS
            with pytest.raises(AdmissionError) as exc_info:
                await client.call("price", {"contract": SWISS, "load": "site00"})
            payload = exc_info.value.payload
            assert payload["code"] == "rate_limited"
            assert payload["limit"]["rate_per_s"] == 5.0
            acct = server.admission.accounting()
            assert acct["n_rate_limited"] == 1 and acct["n_admitted"] == 1

        asyncio.run(_with_server(catalog, scenario))

    def test_timeout_returns_partial_batch_with_conserved_accounting(
        self, catalog
    ):
        async def scenario(server, client):
            # Clock advances 0.3 s per reading with a 0.5 s deadline:
            # admission reads once, then each contract's deadline check
            # reads again — exactly one contract fits before expiry.
            server.admission = AdmissionController(
                AdmissionPolicy(timeout_s=0.5),
                clock=_SteppingClock(step=0.3),
            )
            many = await client.call("price_many", {"load": "site00"})
            assert many["partial"] is True
            assert many["n_requested"] == 5
            assert many["n_requested"] == many["n_priced"] + many["n_timed_out"]
            assert many["n_priced"] == 1 and len(many["bills"]) == 1
            assert many["timed_out"] == catalog.contract_names()[1:]
            acct = server.admission.accounting()
            assert acct["n_timed_out"] == 1 and acct["n_completed"] == 0

        asyncio.run(_with_server(catalog, scenario))


# ---------------------------------------------------------------------------
# audit manifests


class TestManifestReconciliation:
    def test_payload_totals_reconcile_under_concurrent_load(self, catalog):
        async def scenario(server, client):
            jobs = [
                client.call("price", {"contract": c, "load": l})
                for c in catalog.contract_names()
                for l in catalog.load_names()
            ]
            return await asyncio.gather(*jobs)

        metrics_mod.registry().reset()
        manifest_mod.clear()
        with perfconfig.observing():
            served = asyncio.run(_with_server(catalog, scenario))
        recorded = [
            m for m in manifest_mod.emitted() if m.kind == "service_request"
        ]
        assert len(recorded) == 20
        by_request = {m.name: m for m in recorded}
        keys = [
            f"{c}|{l}"
            for c in catalog.contract_names()
            for l in catalog.load_names()
        ]
        for key, enc in zip(keys, served):
            manifest = by_request[key]
            assert manifest.payload["total"] == enc["total"]  # exact, not approx
            assert manifest.payload["currency"] == enc["currency"]
            assert manifest.params["op"] == "price"
        # every request's latency landed in the service histogram
        histograms = metrics_mod.registry().snapshot()["histograms"]
        assert histograms["service.request.latency_s"]["count"] == 20.0

    def test_no_manifests_without_observability(self, catalog):
        async def scenario(server, client):
            return await client.call("price", {"contract": SWISS, "load": "site00"})

        manifest_mod.clear()
        asyncio.run(_with_server(catalog, scenario))
        assert [m for m in manifest_mod.emitted() if m.kind == "service_request"] == []


# ---------------------------------------------------------------------------
# tool registry


class TestToolRegistry:
    def test_default_registry_tool_calls(self, catalog):
        registry = default_registry(catalog)
        bill = registry.call("price_bill", {"contract": SWISS, "load": "site00"})
        assert bill == encode_bill(catalog.price(SWISS, "site00"))
        studies = registry.call("list_studies", {})
        assert "table2" in studies
        comparison = registry.call("compare_contracts", {"load": "site00"})
        assert len(comparison["ranked"]) == 5

    def test_validation_errors_name_the_problem(self, catalog):
        registry = default_registry(catalog)
        with pytest.raises(ServiceError, match="unknown tool"):
            registry.call("nope", {})
        with pytest.raises(ServiceError, match="unexpected arguments"):
            registry.call("price_bill", {"contract": SWISS, "load": "x", "q": 1})
        with pytest.raises(ServiceError, match="missing required"):
            registry.call("price_bill", {"contract": SWISS})
        with pytest.raises(ServiceError, match="must be an object"):
            registry.call("price_bill", [1, 2])

    def test_duplicate_registration_rejected(self):
        registry = ToolRegistry()
        spec = ToolSpec("t", "A tool.", handler=lambda: 1)
        registry.register(spec)
        with pytest.raises(ServiceError, match="already registered"):
            registry.register(spec)
        with pytest.raises(ServiceError, match="no handler"):
            registry.register(ToolSpec("h", "Handlerless."))
