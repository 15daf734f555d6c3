"""The asyncio socket server: line-delimited JSON over a local socket.

Wire protocol (``repro-service-v1``): one JSON object per line, UTF-8.
Requests carry ``{"id": ..., "op": ..., "params": {...}}``; responses
echo the ``id`` with either ``{"ok": true, "result": ...}`` or
``{"ok": false, "error": {"code": ..., "message": ...}}``.  Responses
are serialized with ``sort_keys=True`` so equal results are equal bytes.
Requests on one connection may be pipelined; responses are matched by
``id`` and may arrive out of order.

Operations: ``ping``, ``health`` (readiness + pricing-thread liveness),
``catalog``, ``price`` (one bill: the quote the catalog settled at
startup), ``price_many`` (one load under many contracts, with
partial-result deadline semantics), ``compare`` (paired comparison),
``study`` (a named experiment), ``tool`` / ``tools`` (the MCP-style
dispatch table), ``metrics``, and ``shutdown`` (graceful drain).  Work ops pass through admission control
first; rejections surface the structured
:class:`~repro.exceptions.AdmissionError` payload verbatim (``code`` is
``rate_limited`` / ``overloaded`` / ``deadline_exceeded``, plus
``brownout`` when degraded mode sheds the op and ``draining`` when a
work op arrives after shutdown began).  Malformed frames are
answered with the taxonomy codes of
:func:`~repro.service.resilience.parse_frame` (``frame_invalid_json``,
``frame_not_object``, ``frame_bad_op``, ``frame_bad_params``,
``frame_bad_idem``) or ``frame_too_large`` when a line exceeds the
per-connection frame limit.

Resilience (see :mod:`repro.service.resilience` and docs/service.md):
:meth:`ContractPricingServer.stop` drains gracefully and returns a
:class:`~repro.service.resilience.DrainReport`; requests may carry an
``idem`` key for at-most-once replay across client retries; sustained
admission pressure engages brownout, shedding expensive ops while
``price`` summaries stay alive.

All settlement on the request path runs on one dedicated pricing thread
(owned by the :class:`~repro.service.batching.MicroBatcher`), so serving
never mutates the :mod:`repro.perfconfig` caches concurrently.

>>> import asyncio
>>> from repro.service.catalog import default_catalog
>>> async def demo():
...     server = ContractPricingServer(default_catalog(n_sites=1, days=7))
...     await server.start()
...     client = await ServiceClient.connect(*server.address)
...     enc = await client.call(
...         "price", {"contract": "svc / post-tender formula",
...                   "load": "site00"})
...     await client.close()
...     await server.stop()
...     return enc["currency"]
>>> asyncio.run(demo())
'CHF'
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Dict, List, Optional, Sequence, Tuple

from .. import perfconfig
from ..exceptions import (
    AdmissionError,
    FrameError,
    ReproError,
    ServiceConnectionError,
    ServiceError,
)
from ..observability import metrics as _metrics
from ..observability.manifest import RunManifest, record
from .admission import AdmissionController, AdmissionPolicy, Ticket
from .batching import MicroBatcher
from .catalog import ServiceCatalog, default_catalog, encode_bill
from .resilience import (
    _RETRYABLE_CODES,
    BrownoutController,
    BrownoutPolicy,
    DrainReport,
    IdempotencyCache,
    PricingWatchdog,
    parse_frame,
)
from .tools import ToolRegistry, default_registry

__all__ = ["ContractPricingServer", "ServiceClient", "serve"]

PROTOCOL = "repro-service-v1"

#: Per-line size limit (1 MiB) — a full-detail bill response fits easily.
_LIMIT = 1 << 20


def _error(code: str, message: str, **extra: object) -> Dict[str, object]:
    err: Dict[str, object] = {"code": code, "message": message}
    err.update(extra)
    return err


class ContractPricingServer:
    """Serve a :class:`~repro.service.catalog.ServiceCatalog` over TCP.

    Parameters
    ----------
    catalog:
        The frozen pricing state (defaults to :func:`default_catalog`).
    host / port:
        Bind address; port ``0`` picks an ephemeral port (read it back
        from :attr:`address` after :meth:`start`).
    admission:
        The :class:`~repro.service.admission.AdmissionPolicy`; ``None``
        means no rate limit, 1024 pending, no deadline.
    registry:
        The tool table; ``None`` mounts
        :func:`~repro.service.tools.default_registry`.
    drain_s:
        Default graceful-drain deadline for :meth:`stop` / the
        ``shutdown`` op: in-flight requests get this long to finish
        before being cancelled (the :class:`DrainReport` accounts both).
    max_frame_bytes:
        Per-connection request-line limit; oversized frames are answered
        with a structured ``frame_too_large`` error.
    brownout:
        The :class:`~repro.service.resilience.BrownoutPolicy` for
        degraded mode (``None`` = defaults: engage after 8 consecutive
        admission rejections, shed ``study``/``tool``/``compare`` and
        full-detail bills).
    idempotency_capacity:
        Size of the bounded server-side dedup cache behind client
        ``idem`` keys (at-most-once replay across retries).

    >>> import asyncio
    >>> from repro.service.catalog import default_catalog
    >>> async def demo():
    ...     server = ContractPricingServer(default_catalog(n_sites=1, days=7))
    ...     await server.start()
    ...     host, port = server.address
    ...     await server.stop()
    ...     return host
    >>> asyncio.run(demo())
    '127.0.0.1'
    """

    def __init__(
        self,
        catalog: Optional[ServiceCatalog] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        admission: Optional[AdmissionPolicy] = None,
        registry: Optional[ToolRegistry] = None,
        drain_s: float = 5.0,
        max_frame_bytes: int = _LIMIT,
        brownout: Optional[BrownoutPolicy] = None,
        idempotency_capacity: int = 1024,
    ) -> None:
        if drain_s < 0:
            raise ServiceError("drain_s must be >= 0")
        if max_frame_bytes < 256:
            raise ServiceError("max_frame_bytes must be >= 256")
        self.catalog = catalog if catalog is not None else default_catalog()
        self._host = host
        self._port = port
        self.batcher = MicroBatcher(self.catalog)
        self.admission = AdmissionController(admission)
        self.registry = (
            registry if registry is not None else default_registry(self.catalog)
        )
        self.drain_s = float(drain_s)
        self.max_frame_bytes = int(max_frame_bytes)
        self.brownout = BrownoutController(brownout)
        self.idempotency = IdempotencyCache(idempotency_capacity)
        self.watchdog: Optional[PricingWatchdog] = None
        self.drain_report: Optional[DrainReport] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: set = set()
        self._inflight: set = set()
        self._draining = False
        self._stop_task: Optional[asyncio.Task] = None
        self._stopped = asyncio.Event()
        self._ops = {
            "ping": self._op_ping,
            "health": self._op_health,
            "catalog": self._op_catalog,
            "price": self._op_price,
            "price_many": self._op_price_many,
            "compare": self._op_compare,
            "study": self._op_study,
            "tool": self._op_tool,
            "tools": self._op_tools,
            "metrics": self._op_metrics,
            "shutdown": self._op_shutdown,
        }
        #: Ops that consume admission tokens (the ones that do real work).
        self._gated = {"price", "price_many", "compare", "study", "tool"}

    # -- lifecycle --------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound (valid after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise ServiceError("server is not running")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def start(self) -> None:
        """Bind the socket and start the pricing thread."""
        if self._server is not None:
            raise ServiceError("server already started")
        await self.batcher.start()
        self.watchdog = PricingWatchdog(self.batcher._executor)
        self._draining = False
        self._stop_task = None
        self._stopped.clear()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self._host,
            self._port,
            limit=self.max_frame_bytes,
        )

    async def stop(self, drain_s: Optional[float] = None) -> DrainReport:
        """Gracefully drain and stop; returns the :class:`DrainReport`.

        Stops accepting connections first, gives in-flight requests
        ``drain_s`` seconds (default: the server's ``drain_s``) to
        finish, cancels the stragglers, then closes every connection and
        stops the pricing thread.  Work ops read after the drain began
        are answered with a retryable ``draining`` error and never reach
        admission.  Idempotent: concurrent and repeated calls await the
        same drain and return the same report.
        """
        if self._stop_task is None:
            if self._server is None:
                # never started (or a pre-start stop): nothing in flight
                return self.drain_report or DrainReport(
                    n_inflight_at_drain=0,
                    n_completed_during_drain=0,
                    n_cancelled=0,
                    deadline_s=0.0,
                    drain_wall_s=0.0,
                )
            deadline = max(0.0, self.drain_s if drain_s is None else float(drain_s))
            self._stop_task = asyncio.ensure_future(self._stop_impl(deadline))
        return await asyncio.shield(self._stop_task)

    async def _stop_impl(self, deadline_s: float) -> DrainReport:
        t0 = time.monotonic()
        self._draining = True
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        inflight = [task for task in self._inflight if not task.done()]
        n_at_drain = len(inflight)
        if inflight and deadline_s > 0:
            await asyncio.wait(inflight, timeout=deadline_s)
        stragglers = [task for task in inflight if not task.done()]
        for task in stragglers:
            task.cancel()
        if stragglers:
            await asyncio.gather(*stragglers, return_exceptions=True)
        n_cancelled = sum(1 for task in inflight if task.cancelled())
        n_completed = sum(
            1 for task in inflight if task.done() and not task.cancelled()
        )
        for writer in list(self._writers):
            writer.close()
        await self.batcher.stop()
        report = DrainReport(
            n_inflight_at_drain=n_at_drain,
            n_completed_during_drain=n_completed,
            n_cancelled=n_cancelled,
            deadline_s=deadline_s,
            drain_wall_s=time.monotonic() - t0,
        )
        self.drain_report = report
        if perfconfig.observability_enabled():
            _metrics.inc("service.drain.inflight", report.n_inflight_at_drain)
            _metrics.inc("service.drain.completed", report.n_completed_during_drain)
            _metrics.inc("service.drain.cancelled", report.n_cancelled)
        self._stopped.set()
        return report

    async def wait_stopped(self) -> None:
        """Block until :meth:`stop` completes (for ``serve`` loops)."""
        await self._stopped.wait()

    # -- connection handling ----------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        if self._draining:
            writer.close()
            return
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        tasks: set = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._write(
                        writer,
                        write_lock,
                        {
                            "id": None,
                            "ok": False,
                            "error": _error(
                                "frame_too_large",
                                f"request line over {self.max_frame_bytes} "
                                "bytes (max_frame_bytes)",
                            ),
                        },
                    )
                    break
                if not line:
                    break
                task = asyncio.ensure_future(
                    self._handle_line(line, writer, write_lock)
                )
                tasks.add(task)
                self._inflight.add(task)
                task.add_done_callback(tasks.discard)
                task.add_done_callback(self._inflight.discard)
        finally:
            if not self._draining:
                # the peer vanished: cancel its in-flight work (tickets
                # are finished by _dispatch's finally, conserving the
                # admission accounting).  During drain the tasks outlive
                # the read loop on purpose — _stop_impl settles them.
                for task in list(tasks):
                    task.cancel()
            self._writers.discard(writer)
            writer.close()

    async def _write(self, writer, write_lock, response: Dict[str, object]) -> None:
        result = response.get("result")
        if isinstance(result, bytes):
            # A quote is already sorted-key JSON and the envelope's keys
            # sort "id" < "ok" < "result", so the splice is the bytes
            # json.dumps(response, sort_keys=True) would produce.
            request_id = json.dumps(response["id"], sort_keys=True).encode("utf-8")
            payload = b'{"id": %b, "ok": true, "result": %b}\n' % (request_id, result)
        else:
            payload = (json.dumps(response, sort_keys=True) + "\n").encode("utf-8")
        async with write_lock:
            if writer.is_closing():
                return
            writer.write(payload)
            try:
                await writer.drain()
            except ConnectionError:
                pass

    async def _handle_line(self, line: bytes, writer, write_lock) -> None:
        observed = perfconfig.observability_enabled()
        t0 = time.perf_counter() if observed else 0.0
        request_id: object = None
        try:
            request_id, op, params, idem = parse_frame(line)
            handler = self._ops.get(op)
            if handler is None:
                response = {
                    "id": request_id,
                    "ok": False,
                    "error": _error(
                        "unknown_op",
                        f"unknown op {op!r}; protocol {PROTOCOL} has "
                        f"{sorted(self._ops)}",
                    ),
                }
            else:
                response = await self._dispatch(
                    op, handler, params, request_id, idem
                )
        except FrameError as exc:
            response = {
                "id": exc.request_id if exc.request_id is not None else request_id,
                "ok": False,
                "error": _error(exc.code, str(exc)),
            }
        await self._write(writer, write_lock, response)
        if observed:
            _metrics.observe("service.request.latency_s", time.perf_counter() - t0)

    async def _dispatch(
        self, op, handler, params, request_id, idem=None
    ) -> Dict[str, object]:
        if idem is None or op not in self._gated:
            return await self._dispatch_new(op, handler, params, request_id)
        found = self.idempotency.claim(idem)
        if found is not None:
            try:
                if isinstance(found, asyncio.Future):
                    found = await found
            except ServiceError as exc:  # the owner was abandoned mid-drain
                return {
                    "id": request_id,
                    "ok": False,
                    "error": _error("idempotency_abandoned", str(exc)),
                }
            if perfconfig.observability_enabled():
                _metrics.inc("service.idempotency.replayed")
            replay = dict(found)
            replay["id"] = request_id
            return replay
        try:
            response = await self._dispatch_new(op, handler, params, request_id)
        except BaseException:
            # cancellation (drain) or a defensive-path failure: never
            # strand duplicate waiters on the claim
            self.idempotency.abandon(idem)
            raise
        code = None
        if not response.get("ok"):
            error = response.get("error")
            if isinstance(error, dict):
                code = error.get("code")
        settled = {k: v for k, v in response.items() if k != "id"}
        self.idempotency.resolve(idem, settled, cache=code not in _RETRYABLE_CODES)
        return response

    async def _dispatch_new(self, op, handler, params, request_id) -> Dict[str, object]:
        ticket: Optional[Ticket] = None
        timed_out = False
        cancelled = False
        try:
            if op in self._gated:
                if self._draining:
                    return {
                        "id": request_id,
                        "ok": False,
                        "error": _error(
                            "draining",
                            f"server is draining; {op!r} was not admitted — "
                            "retry against a running server",
                        ),
                    }
                if self.brownout.observe(
                    self.admission.reject_streak()
                ) and self.brownout.should_shed(op, params):
                    if perfconfig.observability_enabled():
                        _metrics.inc("service.brownout.shed")
                    return {
                        "id": request_id,
                        "ok": False,
                        "error": self.brownout.shed(op),
                    }
                ticket = self.admission.admit()
            result = await handler(params, ticket)
            if isinstance(result, dict):
                timed_out = bool(result.get("partial"))
            return {"id": request_id, "ok": True, "result": result}
        except AdmissionError as exc:
            timed_out = exc.payload.get("code") == "deadline_exceeded"
            return {"id": request_id, "ok": False, "error": dict(exc.payload)}
        except ReproError as exc:
            return {
                "id": request_id,
                "ok": False,
                "error": _error("invalid_params", str(exc)),
            }
        except asyncio.CancelledError:
            cancelled = True
            raise
        except Exception as exc:  # pragma: no cover - defensive
            return {
                "id": request_id,
                "ok": False,
                "error": _error("internal_error", f"{type(exc).__name__}: {exc}"),
            }
        finally:
            if ticket is not None:
                ticket.finish(timed_out=timed_out, cancelled=cancelled)

    # -- executor plumbing -------------------------------------------------

    async def _on_pricing_thread(self, fn, *args):
        """Run ``fn`` on the batcher's single pricing thread."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self.batcher._executor, fn, *args)

    # -- ops ---------------------------------------------------------------

    async def _op_ping(self, params, ticket):
        return {"ok": True, "protocol": PROTOCOL}

    async def _op_health(self, params, ticket):
        alive = await self.watchdog.beat() if self.watchdog is not None else False
        accounting = self.admission.accounting()
        return {
            "ready": self._server is not None and not self._draining,
            "draining": self._draining,
            "brownout": self.brownout.active,
            "pricing_thread_alive": alive,
            "pending": accounting["pending"],
            "reject_streak": self.admission.reject_streak(),
            "idempotency": self.idempotency.stats(),
            "protocol": PROTOCOL,
        }

    async def _op_catalog(self, params, ticket):
        return self.catalog.describe()

    async def _op_price(self, params, ticket):
        contract = params.get("contract")
        load = params.get("load")
        detail = params.get("detail", "summary")
        if not isinstance(contract, str) or not isinstance(load, str):
            raise ServiceError("price needs string 'contract' and 'load' params")
        if ticket is not None and ticket.expired():
            raise self.admission.deadline_error("price")
        return await self.batcher.price(contract, load, detail)

    async def _op_price_many(self, params, ticket):
        load = params.get("load")
        if not isinstance(load, str):
            raise ServiceError("price_many needs a string 'load' param")
        contracts = params.get("contracts")
        if contracts is None:
            names = self.catalog.contract_names()
        elif isinstance(contracts, list) and all(
            isinstance(n, str) for n in contracts
        ):
            names = list(contracts)
        else:
            raise ServiceError("'contracts' must be a list of contract names")
        for name in names:
            self.catalog.contract(name)  # fail fast before pricing
        self.catalog.load(load)
        return await self._on_pricing_thread(
            self._price_partial, load, names, ticket
        )

    def _price_partial(
        self, load: str, names: Sequence[str], ticket: Optional[Ticket]
    ) -> Dict[str, object]:
        """Price contract-by-contract, honoring the deadline mid-batch.

        Accounting conserves: ``n_requested == n_priced + n_timed_out``.
        """
        t0 = time.perf_counter()
        t_cpu = time.process_time()
        bills: List[Dict[str, object]] = []
        left_out: List[str] = []
        for name in names:
            if ticket is not None and ticket.expired():
                left_out.append(name)
                continue
            bills.append(encode_bill(self.catalog.price(name, load)))
        result: Dict[str, object] = {
            "load": load,
            "bills": bills,
            "partial": bool(left_out),
            "n_requested": len(names),
            "n_priced": len(bills),
            "n_timed_out": len(left_out),
            "timed_out": left_out,
        }
        if perfconfig.observability_enabled():
            record(
                RunManifest(
                    kind="service_request",
                    name=f"price_many|{load}",
                    created_unix=time.time(),
                    wall_s=time.perf_counter() - t0,
                    cpu_s=time.process_time() - t_cpu,
                    seeds={"price": self.catalog.price_seed},
                    params={
                        "op": "price_many",
                        "load": load,
                        "contracts": list(names),
                        "partial": bool(left_out),
                    },
                    payload={
                        "total": sum(b["total"] for b in bills),
                        "n_priced": len(bills),
                        "n_timed_out": len(left_out),
                    },
                )
            )
        return result

    async def _op_compare(self, params, ticket):
        return await self._op_named_tool("compare_contracts", params)

    async def _op_study(self, params, ticket):
        return await self._op_named_tool("run_study", params)

    async def _op_tool(self, params, ticket):
        name = params.get("name")
        if not isinstance(name, str):
            raise ServiceError("tool needs a string 'name' param")
        arguments = params.get("arguments", {})
        return await self._on_pricing_thread(self.registry.call, name, arguments)

    async def _op_named_tool(self, tool_name, arguments):
        return await self._on_pricing_thread(self.registry.call, tool_name, arguments)

    async def _op_tools(self, params, ticket):
        return self.registry.describe()

    async def _op_metrics(self, params, ticket):
        return self.registry.call("metrics", {})

    async def _op_shutdown(self, params, ticket):
        drain_s = params.get("drain_s")
        if drain_s is not None and not isinstance(drain_s, (int, float)):
            raise ServiceError("'drain_s' must be a number when present")
        asyncio.ensure_future(self.stop(drain_s=drain_s))
        response = {"stopping": True}
        if drain_s is not None:
            response["drain_s"] = float(drain_s)
        return response


class ServiceClient:
    """A pipelining line-protocol client (responses matched by ``id``).

    >>> import asyncio
    >>> from repro.service.catalog import default_catalog
    >>> async def demo():
    ...     server = ContractPricingServer(default_catalog(n_sites=1, days=7))
    ...     await server.start()
    ...     client = await ServiceClient.connect(*server.address)
    ...     names = await client.call("tools")
    ...     await client.close()
    ...     await server.stop()
    ...     return names[0]["name"]
    >>> asyncio.run(demo())
    'catalog'
    """

    def __init__(self, reader, writer) -> None:
        self._reader = reader
        self._writer = writer
        self._write_lock = asyncio.Lock()
        self._next_id = 0
        #: request id -> (future, op name) so a torn connection can fail
        #: every pending call with a *descriptive* error.
        self._futures: Dict[object, Tuple[asyncio.Future, str]] = {}
        self._read_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(
        cls, host: str, port: int, max_frame_bytes: int = _LIMIT
    ) -> "ServiceClient":
        """Open a connection to a running server (bounded response frames)."""
        reader, writer = await asyncio.open_connection(
            host, port, limit=max_frame_bytes
        )
        return cls(reader, writer)

    @property
    def connected(self) -> bool:
        """True while the reader task lives and the socket accepts writes."""
        return not self._read_task.done() and not self._writer.is_closing()

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                message = json.loads(line)
                entry = self._futures.pop(message.get("id"), None)
                if entry is not None and not entry[0].done():
                    entry[0].set_result(message)
        except (
            ConnectionError,
            asyncio.CancelledError,
            asyncio.LimitOverrunError,
            ValueError,
        ):
            # ValueError covers both oversized frames (bounded readline)
            # and undecodable JSON; either way the stream is unusable.
            pass
        finally:
            pending, self._futures = dict(self._futures), {}
            for request_id, (future, op) in pending.items():
                if not future.done():
                    future.set_exception(
                        ServiceConnectionError(
                            f"connection closed before the response to "
                            f"{op!r} request id={request_id}"
                        )
                    )

    async def request(
        self, op: str, params: Optional[Dict] = None, idem: Optional[str] = None
    ) -> Dict:
        """Send one request; resolves to the full response envelope.

        Fails fast with :class:`~repro.exceptions.ServiceConnectionError`
        when the connection is already gone (instead of stranding the
        caller); ``idem`` stamps the at-most-once replay key."""
        if self._read_task.done():
            raise ServiceConnectionError(
                f"cannot send {op!r}: the connection is closed (reconnect "
                "or use SelfHealingClient)"
            )
        self._next_id += 1
        request_id = self._next_id
        future = asyncio.get_running_loop().create_future()
        self._futures[request_id] = (future, op)
        payload = {"id": request_id, "op": op}
        if params:
            payload["params"] = params
        if idem is not None:
            payload["idem"] = idem
        try:
            async with self._write_lock:
                self._writer.write((json.dumps(payload) + "\n").encode("utf-8"))
                await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            self._futures.pop(request_id, None)
            raise ServiceConnectionError(
                f"connection lost while sending {op!r} request "
                f"id={request_id}: {exc}"
            ) from exc
        return await future

    async def call(
        self, op: str, params: Optional[Dict] = None, idem: Optional[str] = None
    ) -> object:
        """Send one request; returns ``result`` or raises the wire error.

        Admission rejections (including brownout sheds and requests
        refused while the server drains) come back as
        :class:`~repro.exceptions.AdmissionError` (structured payload
        preserved); every other error as
        :class:`~repro.exceptions.ServiceError`.
        """
        response = await self.request(op, params, idem=idem)
        if response.get("ok"):
            return response["result"]
        error = response.get("error", {})
        if error.get("code") in (
            "rate_limited",
            "overloaded",
            "deadline_exceeded",
            "brownout",
            "draining",
        ):
            raise AdmissionError(error)
        raise ServiceError(f"{error.get('code')}: {error.get('message')}")

    async def close(self) -> None:
        """Close the connection and stop the reader task."""
        self._read_task.cancel()
        try:
            await self._read_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass


def serve(
    host: str = "127.0.0.1",
    port: int = 8765,
    rate_per_s: Optional[float] = None,
    burst: int = 16,
    max_pending: int = 1024,
    timeout_s: Optional[float] = None,
    n_sites: int = 8,
    days: int = 28,
    observability: bool = False,
    drain_s: float = 5.0,
) -> None:
    """Blocking entry point behind ``python -m repro serve``.

    Builds :func:`~repro.service.catalog.default_catalog`, starts a
    :class:`ContractPricingServer` and runs until interrupted; shutdown
    (``shutdown`` op or Ctrl-C) drains in-flight requests for up to
    ``drain_s`` seconds and prints the
    :class:`~repro.service.resilience.DrainReport`.

    >>> callable(serve)
    True
    """
    policy = AdmissionPolicy(
        rate_per_s=rate_per_s,
        burst=burst,
        max_pending=max_pending,
        timeout_s=timeout_s,
    )

    async def _run() -> None:
        catalog = default_catalog(n_sites=n_sites, days=days)
        server = ContractPricingServer(
            catalog,
            host=host,
            port=port,
            admission=policy,
            drain_s=drain_s,
        )
        await server.start()
        bound_host, bound_port = server.address
        print(f"repro service ({PROTOCOL}) listening on {bound_host}:{bound_port}")
        print(
            f"catalog: {len(catalog.contract_names())} contracts x "
            f"{len(catalog.load_names())} loads x "
            f"{len(catalog.periods)} periods"
        )
        try:
            await server.wait_stopped()
        finally:
            report = await server.stop()
            print(
                f"drained: {report.n_completed_during_drain} completed, "
                f"{report.n_cancelled} cancelled of "
                f"{report.n_inflight_at_drain} in flight "
                f"(deadline {report.deadline_s:g}s)"
            )

    if observability:
        with perfconfig.observing():
            asyncio.run(_run())
    else:
        asyncio.run(_run())
