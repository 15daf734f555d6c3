"""Resilient serving: drain, health, frame taxonomy, idempotency, brownout.

The contracts under test:

* **Graceful drain** — ``server.stop()`` stops accepting, lets in-flight
  requests finish within the deadline, cancels stragglers, and returns a
  :class:`~repro.service.resilience.DrainReport` whose conservation law
  (``n_inflight_at_drain == n_completed_during_drain + n_cancelled``)
  always closes.
* **Fail-fast client** — a killed server fails every pending future with
  a :class:`~repro.exceptions.ServiceConnectionError` naming the op and
  request id; nothing hangs.
* **At-most-once work** — a retried ``price`` carrying the same ``idem``
  key replays the cached response instead of settling twice, even when
  the first response was torn off the wire mid-frame.
* **Brownout** — sustained admission pressure sheds the expensive ops
  with a structured ``brownout`` rejection while ``price`` summaries
  keep flowing, and recovery is observed, not assumed.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro.exceptions import (
    AdmissionError,
    FrameError,
    ServiceConnectionError,
    ServiceError,
)
from repro.robustness import FaultyProxy, WireFaultSpec
from repro.robustness.supervisor import RetryPolicy
from repro.service import (
    AdmissionController,
    AdmissionPolicy,
    BrownoutController,
    BrownoutPolicy,
    ContractPricingServer,
    DrainReport,
    IdempotencyCache,
    PricingWatchdog,
    SelfHealingClient,
    ServiceClient,
    ToolSpec,
    default_catalog,
    default_registry,
    encode_bill,
    parse_frame,
)

CONTRACT = "svc / post-tender formula"


@pytest.fixture(scope="module")
def catalog():
    return default_catalog(n_sites=2, days=7, seed=3)


def _nap_registry(catalog):
    """The default registry plus a deliberately slow gated tool."""
    registry = default_registry(catalog)
    registry.register(
        ToolSpec(
            name="nap",
            description="sleep on the pricing thread (test fixture)",
            params={"seconds": "how long to sleep"},
            required=("seconds",),
            handler=lambda seconds: (time.sleep(seconds), {"napped": seconds})[1],
        )
    )
    return registry


async def _start(catalog, **kwargs):
    server = ContractPricingServer(catalog, **kwargs)
    await server.start()
    return server


# ---------------------------------------------------------------------------
# graceful drain


class TestGracefulDrain:
    def test_drain_lets_inflight_finish_and_conserves(self, catalog):
        async def run():
            server = await _start(catalog, registry=_nap_registry(catalog))
            client = await ServiceClient.connect(*server.address)
            pending = asyncio.ensure_future(
                client.call("tool", {"name": "nap", "arguments": {"seconds": 0.2}})
            )
            await asyncio.sleep(0.05)  # let the request reach the server
            report = await server.stop()
            answered = await pending
            await client.close()
            return report, answered

        report, answered = asyncio.run(run())
        assert answered == {"napped": 0.2}
        assert report.n_inflight_at_drain == 1
        assert report.n_completed_during_drain == 1
        assert report.n_cancelled == 0
        assert report.conserved()

    def test_drain_deadline_cancels_stragglers(self, catalog):
        async def run():
            server = await _start(catalog, registry=_nap_registry(catalog))
            client = await ServiceClient.connect(*server.address)
            pending = asyncio.ensure_future(
                client.call("tool", {"name": "nap", "arguments": {"seconds": 1.2}})
            )
            await asyncio.sleep(0.05)
            report = await server.stop(drain_s=0.1)
            with pytest.raises((ServiceConnectionError, ServiceError)):
                await pending
            await client.close()
            return report, server.admission.accounting()

        report, acct = asyncio.run(run())
        assert report.n_inflight_at_drain == 1
        assert report.n_cancelled == 1
        assert report.n_completed_during_drain == 0
        assert report.conserved()
        assert report.deadline_s == 0.1
        # the cancelled request is not counted as completed by admission
        assert acct["n_cancelled"] == report.n_cancelled
        assert acct["n_completed"] == 0 and acct["pending"] == 0

    def test_work_frames_read_during_drain_never_reach_admission(self, catalog):
        async def run():
            server = await _start(catalog)
            blocker = threading.Event()
            params = {"contract": CONTRACT, "load": "site00"}
            try:
                # busy pricing thread: the compare stays in flight
                server.batcher._executor.submit(blocker.wait, 10.0)
                client = await ServiceClient.connect(*server.address)
                compare = asyncio.ensure_future(
                    client.call("compare", {"load": "site00"})
                )
                await asyncio.sleep(0.05)
                stopping = asyncio.ensure_future(server.stop(drain_s=2.0))
                await asyncio.sleep(0.05)  # stop() is now mid-drain
                refused = await asyncio.wait_for(
                    asyncio.gather(
                        *[
                            client.call("price", params, idem=f"d{i}" if i else None)
                            for i in range(10)
                        ],
                        return_exceptions=True,
                    ),
                    timeout=5.0,
                )
            finally:
                blocker.set()
            answered = await compare
            report = await stopping
            await client.close()
            return (refused, answered, report, server.admission.accounting(),
                    server.idempotency.stats())

        refused, answered, report, acct, idem = asyncio.run(run())
        assert all(isinstance(r, AdmissionError) for r in refused)
        assert {r.payload["code"] for r in refused} == {"draining"}
        assert answered["cheapest"] == answered["ranked"][0]["contract"]
        assert acct["n_submitted"] == acct["n_admitted"] == 1
        assert acct["n_completed"] == 1 and acct["pending"] == 0
        assert idem["size"] == 0  # retryable: never pinned
        assert report.n_inflight_at_drain == 1
        assert report.n_completed_during_drain == 1
        assert report.conserved()

    def test_draining_server_refuses_new_connections(self, catalog):
        async def run():
            server = await _start(catalog, registry=_nap_registry(catalog))
            client = await ServiceClient.connect(*server.address)
            pending = asyncio.ensure_future(
                client.call("tool", {"name": "nap", "arguments": {"seconds": 0.3}})
            )
            await asyncio.sleep(0.05)
            host, port = server.address
            stopping = asyncio.ensure_future(server.stop())
            await asyncio.sleep(0.05)  # stop() is now mid-drain
            refused = False
            try:
                reader, writer = await asyncio.open_connection(host, port)
                data = await asyncio.wait_for(reader.read(64), timeout=2.0)
                refused = data == b""
                writer.close()
            except (ConnectionError, OSError):
                refused = True
            await pending
            report = await stopping
            await client.close()
            return refused, report

        refused, report = asyncio.run(run())
        assert refused
        assert report.conserved()

    def test_stop_is_idempotent_and_concurrent_safe(self, catalog):
        async def run():
            server = await _start(catalog)
            first, second = await asyncio.gather(server.stop(), server.stop())
            third = await server.stop()
            return first, second, third

        first, second, third = asyncio.run(run())
        # one drain, every awaiter sees the same report
        assert first is second is third
        assert first.conserved()

    def test_shutdown_op_honors_drain_param(self, catalog):
        async def run():
            server = await _start(catalog, registry=_nap_registry(catalog))
            client = await ServiceClient.connect(*server.address)
            pending = asyncio.ensure_future(
                client.call("tool", {"name": "nap", "arguments": {"seconds": 1.2}})
            )
            await asyncio.sleep(0.05)
            stopping = await client.call("shutdown", {"drain_s": 0.1})
            assert stopping == {"stopping": True, "drain_s": 0.1}
            with pytest.raises((ServiceConnectionError, ServiceError)):
                await pending
            await server.wait_stopped()
            await client.close()
            return server.drain_report

        report = asyncio.run(run())
        assert report is not None
        assert report.n_cancelled == 1
        assert report.conserved()

    def test_drain_report_validation_and_dict(self):
        report = DrainReport(
            n_inflight_at_drain=3,
            n_completed_during_drain=2,
            n_cancelled=1,
            deadline_s=5.0,
            drain_wall_s=0.25,
        )
        assert report.conserved()
        assert report.to_dict()["n_cancelled"] == 1
        broken = DrainReport(3, 1, 1, 5.0, 0.1)
        assert not broken.conserved()


# ---------------------------------------------------------------------------
# health + watchdog


class TestHealth:
    def test_health_reports_ready_and_liveness(self, catalog):
        async def run():
            server = await _start(catalog)
            client = await ServiceClient.connect(*server.address)
            health = await client.call("health")
            await client.close()
            await server.stop()
            return health

        health = asyncio.run(run())
        assert health["ready"] is True
        assert health["draining"] is False
        assert health["brownout"] is False
        assert health["pricing_thread_alive"] is True
        assert health["pending"] == 0
        assert health["protocol"] == "repro-service-v1"

    def test_wedged_pricing_thread_flips_liveness(self, catalog):
        async def run():
            server = await _start(catalog, registry=_nap_registry(catalog))
            client = await ServiceClient.connect(*server.address)
            wedge = asyncio.ensure_future(
                client.call("tool", {"name": "nap", "arguments": {"seconds": 1.0}})
            )
            await asyncio.sleep(0.1)  # the nap now occupies the pricing thread
            health = await client.call("health")
            await wedge
            recovered = await client.call("health")
            await client.close()
            await server.stop()
            return health, recovered

        health, recovered = asyncio.run(run())
        assert health["pricing_thread_alive"] is False
        assert recovered["pricing_thread_alive"] is True

    def test_watchdog_stats_count_beats_and_misses(self, catalog):
        async def run():
            server = await _start(catalog, registry=_nap_registry(catalog))
            client = await ServiceClient.connect(*server.address)
            wedge = asyncio.ensure_future(
                client.call("tool", {"name": "nap", "arguments": {"seconds": 0.6}})
            )
            await asyncio.sleep(0.1)
            await client.call("health")
            await wedge
            stats = server.watchdog.stats()
            await client.close()
            await server.stop()
            return stats

        stats = asyncio.run(run())
        assert stats["n_misses"] >= 1


# ---------------------------------------------------------------------------
# frame taxonomy


async def _raw_exchange(server, lines):
    """Write raw frames, collect one response line per frame."""
    reader, writer = await asyncio.open_connection(*server.address, limit=1 << 20)
    responses = []
    try:
        for line in lines:
            writer.write(line)
            await writer.drain()
            raw = await asyncio.wait_for(reader.readline(), timeout=2.0)
            responses.append(json.loads(raw) if raw else None)
    finally:
        writer.close()
    return responses


class TestFrameTaxonomy:
    def test_parse_frame_codes(self):
        cases = {
            b"not json": "frame_invalid_json",
            b"[1, 2]": "frame_not_object",
            b'{"id": 1}': "frame_bad_op",
            b'{"id": 1, "op": 7}': "frame_bad_op",
            b'{"id": 1, "op": "ping", "params": []}': "frame_bad_params",
            b'{"id": 1, "op": "ping", "idem": 5}': "frame_bad_idem",
        }
        for line, code in cases.items():
            with pytest.raises(FrameError) as err:
                parse_frame(line)
            assert err.value.code == code

    def test_malformed_frames_answered_structurally(self, catalog):
        lines = [
            b"not json\n",
            b"[1, 2]\n",
            b'{"id": 7}\n',
            b'{"id": 8, "op": "ping", "params": []}\n',
            b'{"id": 9, "op": "ping", "idem": 5}\n',
            b'{"id": 10, "op": "teleport"}\n',
        ]

        async def run():
            server = await _start(catalog)
            responses = await _raw_exchange(server, lines)
            await server.stop()
            return responses

        responses = asyncio.run(run())
        codes = [r["error"]["code"] for r in responses]
        assert codes == [
            "frame_invalid_json",
            "frame_not_object",
            "frame_bad_op",
            "frame_bad_params",
            "frame_bad_idem",
            "unknown_op",
        ]
        # ids echo back when the frame carried one
        assert responses[2]["id"] == 7
        assert all(r["ok"] is False for r in responses)

    def test_oversized_frame_rejected_with_limit_named(self, catalog):
        async def run():
            server = await _start(catalog, max_frame_bytes=512)
            reader, writer = await asyncio.open_connection(
                *server.address, limit=1 << 16
            )
            writer.write(b'{"id": 1, "op": "' + b"x" * 600 + b'"}\n')
            await writer.drain()
            raw = await asyncio.wait_for(reader.readline(), timeout=2.0)
            eof = await asyncio.wait_for(reader.read(64), timeout=2.0)
            writer.close()
            await server.stop()
            return json.loads(raw), eof

        response, eof = asyncio.run(run())
        assert response["ok"] is False
        assert response["error"]["code"] == "frame_too_large"
        assert "512" in response["error"]["message"]
        assert eof == b""  # the connection is closed after the rejection

    def test_max_frame_bytes_validated(self, catalog):
        with pytest.raises(ServiceError, match="max_frame_bytes"):
            ContractPricingServer(catalog, max_frame_bytes=16)
        with pytest.raises(ServiceError, match="drain_s"):
            ContractPricingServer(catalog, drain_s=-1.0)


# ---------------------------------------------------------------------------
# fail-fast client


class TestClientFailFast:
    def test_killed_server_fails_pending_future_naming_op_and_id(self, catalog):
        async def run():
            server = await _start(catalog, registry=_nap_registry(catalog))
            client = await ServiceClient.connect(*server.address)
            pending = asyncio.ensure_future(
                client.call("tool", {"name": "nap", "arguments": {"seconds": 1.2}})
            )
            await asyncio.sleep(0.05)
            for writer in list(server._writers):  # the kill switch
                writer.transport.abort()
            with pytest.raises(ServiceConnectionError) as err:
                await asyncio.wait_for(pending, timeout=2.0)
            await client.close()
            await server.stop(drain_s=0.1)
            return str(err.value)

        message = asyncio.run(run())
        assert "'tool'" in message and "id=1" in message

    def test_requests_after_connection_loss_fail_fast(self, catalog):
        async def run():
            server = await _start(catalog)
            client = await ServiceClient.connect(*server.address)
            for writer in list(server._writers):
                writer.transport.abort()
            await asyncio.sleep(0.05)
            with pytest.raises(ServiceConnectionError):
                await client.call("ping")
            await client.close()
            await server.stop()

        asyncio.run(run())

    def test_admission_conserved_under_concurrent_disconnects(self, catalog):
        async def run():
            server = await _start(catalog, registry=_nap_registry(catalog))
            clients = [
                await ServiceClient.connect(*server.address) for _ in range(3)
            ]
            tasks = [
                asyncio.ensure_future(
                    c.call("tool", {"name": "nap", "arguments": {"seconds": 0.1}})
                )
                for c in clients
            ]
            await asyncio.sleep(0.03)
            for c in clients:  # every client vanishes mid-request
                c._writer.transport.abort()
            await asyncio.gather(*tasks, return_exceptions=True)
            await asyncio.sleep(0.1)  # let cancellations settle tickets
            accounting = server.admission.accounting()
            for c in clients:
                await c.close()
            await server.stop()
            return accounting

        acct = asyncio.run(run())
        assert acct["pending"] == 0  # no leaked tickets
        assert acct["n_cancelled"] == 3  # every vanished peer's request
        assert (
            acct["n_admitted"]
            == acct["n_completed"] + acct["n_timed_out"] + acct["n_cancelled"]
        )
        assert (
            acct["n_submitted"]
            == acct["n_admitted"] + acct["n_rate_limited"] + acct["n_overloaded"]
        )


# ---------------------------------------------------------------------------
# idempotency


class TestIdempotency:
    def test_same_idem_key_replays_without_resettling(self, catalog):
        async def run():
            server = await _start(catalog)
            client = await ServiceClient.connect(*server.address)
            params = {"contract": CONTRACT, "load": "site00"}
            first = await client.call("price", params, idem="k1")
            again = await client.call("price", params, idem="k1")
            stats = server.idempotency.stats()
            n_bills = server.batcher.n_bills
            await client.close()
            await server.stop()
            return first, again, stats, n_bills

        first, again, stats, n_bills = asyncio.run(run())
        assert json.dumps(first, sort_keys=True) == json.dumps(
            again, sort_keys=True
        )
        assert n_bills == 1  # settled exactly once
        assert stats["n_replayed"] == 1

    def test_concurrent_same_key_settles_once(self, catalog):
        async def run():
            server = await _start(catalog)
            client = await ServiceClient.connect(*server.address)
            params = {"contract": CONTRACT, "load": "site01"}
            results = await asyncio.gather(
                *[client.call("price", params, idem="race") for _ in range(4)]
            )
            n_bills = server.batcher.n_bills
            await client.close()
            await server.stop()
            return results, n_bills

        results, n_bills = asyncio.run(run())
        blobs = {json.dumps(r, sort_keys=True) for r in results}
        assert len(blobs) == 1
        assert n_bills == 1

    def test_ungated_ops_ignore_idem(self, catalog):
        async def run():
            server = await _start(catalog)
            client = await ServiceClient.connect(*server.address)
            a = await client.call("ping", idem="p1")
            b = await client.call("ping", idem="p1")
            stats = server.idempotency.stats()
            await client.close()
            await server.stop()
            return a, b, stats

        a, b, stats = asyncio.run(run())
        assert a == b
        assert stats["size"] == 0 and stats["n_replayed"] == 0

    def test_cache_capacity_bounded(self):
        cache = IdempotencyCache(capacity=2)
        for k in ("a", "b", "c"):
            assert cache.claim(k) is None
            cache.resolve(k, {"ok": True, "result": k})
        stats = cache.stats()
        assert stats["size"] == 2
        assert stats["n_evicted"] == 1
        assert cache.claim("a") is None  # evicted: treated as new work

    def test_torn_response_retry_never_double_settles(self, catalog):
        # find a seed whose first proxied connection tears its first
        # response and whose second connection is clean — plan_for is a
        # pure function, so this scan involves no I/O.
        spec = WireFaultSpec(tear_rate=0.5, fault_frame=0)
        seed = next(
            s
            for s in range(1000)
            if FaultyProxy(("h", 1), spec, seed=s).plan_for(0).mode == "tear"
            and FaultyProxy(("h", 1), spec, seed=s).plan_for(1).mode == "clean"
        )

        async def run():
            server = await _start(catalog)
            proxy = FaultyProxy(server.address, spec, seed=seed)
            await proxy.start()
            client = SelfHealingClient(
                *proxy.address,
                retry=RetryPolicy(
                    max_attempts=6, base_backoff_s=0.005, max_backoff_s=0.05
                ),
            )
            result = await client.call(
                "price", {"contract": CONTRACT, "load": "site00"}
            )
            n_bills = server.batcher.n_bills
            stats = server.idempotency.stats()
            reconnects = client.n_reconnects
            await client.close()
            await proxy.stop()
            await server.stop()
            return result, n_bills, stats, reconnects

        result, n_bills, stats, reconnects = asyncio.run(run())
        direct = encode_bill(catalog.price(CONTRACT, "site00"))
        assert json.dumps(result, sort_keys=True) == json.dumps(
            direct, sort_keys=True
        )
        assert n_bills == 1  # the retry replayed, it did not re-settle
        assert stats["n_replayed"] == 1
        assert reconnects == 1


# ---------------------------------------------------------------------------
# self-healing client


class TestSelfHealingClient:
    def test_reconnects_across_a_server_side_reset(self, catalog):
        async def run():
            server = await _start(catalog)
            client = SelfHealingClient(*server.address)
            pong = await client.call("ping")
            for writer in list(server._writers):
                writer.transport.abort()
            await asyncio.sleep(0.02)
            priced = await client.call(
                "price", {"contract": CONTRACT, "load": "site00"}
            )
            reconnects = client.n_reconnects
            await client.close()
            await server.stop()
            return pong, priced, reconnects

        pong, priced, reconnects = asyncio.run(run())
        assert pong["ok"] is True
        assert priced["total"] > 0
        assert reconnects >= 1

    def test_exhausted_retries_raise_with_op_and_attempts(self, catalog):
        async def run():
            server = await _start(catalog)
            host, port = server.address
            await server.stop()  # nothing is listening any more
            client = SelfHealingClient(
                host,
                port,
                retry=RetryPolicy(
                    max_attempts=2, base_backoff_s=0.005, max_backoff_s=0.01
                ),
            )
            with pytest.raises(ServiceConnectionError) as err:
                await client.call("ping")
            await client.close()
            return str(err.value)

        message = asyncio.run(run())
        assert "'ping'" in message and "2 attempt" in message

    def test_admission_rejections_are_not_retried(self, catalog):
        async def run():
            server = await _start(
                catalog,
                admission=AdmissionPolicy(rate_per_s=0.001, burst=1),
            )
            client = SelfHealingClient(*server.address)
            params = {"contract": CONTRACT, "load": "site00"}
            await client.call("price", params)  # consumes the only token
            with pytest.raises(AdmissionError) as err:
                await client.call("price", params)
            retries = client.n_retries
            await client.close()
            await server.stop()
            return err.value.payload["code"], retries

        code, retries = asyncio.run(run())
        assert code == "rate_limited"
        assert retries == 0

    def test_closed_client_refuses_calls(self, catalog):
        async def run():
            server = await _start(catalog)
            client = SelfHealingClient(*server.address)
            await client.call("ping")
            await client.close()
            with pytest.raises(ServiceError):
                await client.call("ping")
            await server.stop()

        asyncio.run(run())


# ---------------------------------------------------------------------------
# brownout


class TestBrownout:
    def test_controller_latches_and_recovers(self):
        controller = BrownoutController(
            BrownoutPolicy(streak_threshold=3, recovery_observations=2)
        )
        assert not controller.observe(2)
        assert controller.observe(3)  # latched
        assert controller.observe(0)  # 1 calm observation: still active
        assert not controller.observe(0)  # 2nd calm observation: released
        stats = controller.stats()
        assert stats["n_entered"] == 1 and stats["n_exited"] == 1

    def test_shedding_table(self):
        controller = BrownoutController()
        assert not controller.should_shed("study", {})  # inactive: no shedding
        controller.observe(controller.policy.streak_threshold)  # latch
        assert controller.should_shed("study", {})
        assert controller.should_shed("tool", {"name": "x"})
        assert controller.should_shed("compare", {})
        assert controller.should_shed("price", {"detail": "full"})
        assert not controller.should_shed("price", {})
        assert not controller.should_shed("price", {"detail": "summary"})
        assert not controller.should_shed("ping", {})

    def test_server_sheds_expensive_ops_keeps_price_summaries(self, catalog):
        async def run():
            server = await _start(
                catalog,
                brownout=BrownoutPolicy(
                    streak_threshold=3, recovery_observations=2
                ),
            )
            # deterministic pressure: frozen clock, one-token bucket
            t = [0.0]
            server.admission = AdmissionController(
                AdmissionPolicy(rate_per_s=1.0, burst=1), clock=lambda: t[0]
            )
            client = await ServiceClient.connect(*server.address)
            params = {"contract": CONTRACT, "load": "site00"}

            await client.call("price", params)  # consumes the token
            streak = 0
            for _ in range(3):  # build the rejection streak
                try:
                    await client.call("price", params)
                except AdmissionError:
                    streak += 1

            # the brownout latch now sheds expensive work pre-admission
            with pytest.raises(AdmissionError) as shed:
                await client.call("study", {"name": "peak_ratio"})
            shed_code = shed.value.payload["code"]
            with pytest.raises(AdmissionError) as shed_full:
                await client.call("price", dict(params, detail="full"))
            shed_full_code = shed_full.value.payload["code"]

            # price summaries stay alive the moment a token exists
            t[0] += 2.0
            alive = await client.call("price", params)

            # two calm observations release the latch
            t[0] += 2.0
            await client.call("price", params)
            t[0] += 2.0
            restored = await client.call("price", dict(params, detail="full"))

            health_active = server.brownout.stats()
            await client.close()
            await server.stop()
            return streak, shed_code, shed_full_code, alive, restored, health_active

        streak, shed_code, shed_full_code, alive, restored, stats = asyncio.run(
            run()
        )
        assert streak == 3
        assert shed_code == "brownout"
        assert shed_full_code == "brownout"
        assert alive["total"] > 0
        assert restored["total"] > 0  # full detail works again post-recovery
        assert stats["n_entered"] == 1 and stats["n_exited"] == 1
        assert stats["n_shed"] == 2

    def test_brownout_visible_in_health(self, catalog):
        async def run():
            server = await _start(
                catalog,
                brownout=BrownoutPolicy(streak_threshold=2, recovery_observations=2),
            )
            t = [0.0]
            server.admission = AdmissionController(
                AdmissionPolicy(rate_per_s=1.0, burst=1), clock=lambda: t[0]
            )
            client = await ServiceClient.connect(*server.address)
            params = {"contract": CONTRACT, "load": "site00"}
            await client.call("price", params)
            for _ in range(2):
                with pytest.raises(AdmissionError):
                    await client.call("price", params)
            with pytest.raises(AdmissionError):
                await client.call("study", {"name": "peak_ratio"})
            health = await client.call("health")
            await client.close()
            await server.stop()
            return health

        health = asyncio.run(run())
        assert health["brownout"] is True
        assert health["reject_streak"] >= 2


# ---------------------------------------------------------------------------
# watchdog unit


class TestPricingWatchdog:
    def test_beat_against_live_and_wedged_executor(self):
        from concurrent.futures import ThreadPoolExecutor

        async def run():
            executor = ThreadPoolExecutor(max_workers=1)
            dog = PricingWatchdog(executor, probe_timeout_s=0.1)
            alive_before = await dog.beat()
            executor.submit(time.sleep, 0.5)  # wedge the only thread
            alive_wedged = await dog.beat()
            executor.shutdown(wait=True)
            return alive_before, alive_wedged, dog.stats()

        alive_before, alive_wedged, stats = asyncio.run(run())
        assert alive_before is True
        assert alive_wedged is False
        assert stats["n_beats"] >= 1 and stats["n_misses"] >= 1
