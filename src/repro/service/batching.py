"""The ``price`` front: answer from the frozen catalog's quote table.

The catalog is frozen at startup, so the answer to a ``price`` request
is a pure function of (contract, load, detail).
:class:`~repro.service.catalog.ServiceCatalog` settles every pair once
at construction — one shared-plan ``bill_many`` per load — and keeps the
sorted-key JSON bytes of each detail level.  :class:`MicroBatcher`
answers ``price`` from those bytes, so a served quote is byte-for-byte
``json.dumps(encode_bill(catalog.price(c, l), detail), sort_keys=True)``
and the request path settles, encodes and serializes nothing.

The batcher also owns the service's single pricing thread: the ops that
do price on request (``price_many``, ``compare``, ``study``, ``tool``)
run there, so the :mod:`repro.perfconfig` caches are never mutated
concurrently by the request path.

>>> import asyncio
>>> from repro.service.catalog import default_catalog
>>> async def demo():
...     batcher = MicroBatcher(default_catalog(n_sites=1, days=7))
...     await batcher.start()
...     names = batcher.catalog.contract_names()
...     quotes = await asyncio.gather(
...         *[batcher.price(c, "site00") for c in names])
...     await batcher.stop()
...     return [json.loads(q)["contract"] for q in quotes] == names
>>> asyncio.run(demo())
True
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from .. import perfconfig
from ..exceptions import ServiceError
from ..observability.manifest import RunManifest, record
from .catalog import ServiceCatalog, encode_bill

__all__ = ["MicroBatcher", "encode_bill"]


class MicroBatcher:
    """Answer ``price`` calls from the catalog's quotes; own the pricing thread.

    Parameters
    ----------
    catalog:
        The frozen :class:`~repro.service.catalog.ServiceCatalog`.
    executor:
        The pricing executor; defaults to a dedicated single thread so
        settlement never runs concurrently with itself.

    >>> import asyncio
    >>> from repro.service.catalog import default_catalog
    >>> async def demo():
    ...     b = MicroBatcher(default_catalog(n_sites=1, days=7))
    ...     await b.start()
    ...     quote = await b.price("svc / post-tender formula", "site00")
    ...     await b.stop()
    ...     return json.loads(quote)["currency"], b.n_bills
    >>> asyncio.run(demo())
    ('CHF', 1)
    """

    def __init__(
        self,
        catalog: ServiceCatalog,
        executor: Optional[ThreadPoolExecutor] = None,
    ) -> None:
        self.catalog = catalog
        self._executor = executor
        self._own_executor = executor is None
        self._running = False
        #: Quotes answered by :meth:`price`.
        self.n_bills = 0
        #: Seconds the request path spent settling bills: the catalog
        #: settles every quote at construction, so this stays 0.0.
        self.settle_s_total = 0.0

    @property
    def n_batches(self) -> int:
        """Batches answered: every quote is answered alone, one per bill."""
        return self.n_bills

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Start the pricing thread (starting twice is an error)."""
        if self._running:
            raise ServiceError("micro-batcher already started")
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-pricing"
            )
            self._own_executor = True
        self._running = True

    async def stop(self) -> None:
        """Stop answering and shut the owned pricing thread down (idempotent)."""
        if not self._running:
            return
        self._running = False
        if self._own_executor and self._executor is not None:
            # wait=False: a drain that *cancelled* a straggler must not
            # block the event loop until the abandoned executor job ends
            # (it finishes in its thread; queued jobs are cancelled).
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    # -- request path -----------------------------------------------------

    def price(
        self, contract: str, load: str, detail: str = "summary"
    ) -> "asyncio.Future[bytes]":
        """Answer one pricing request with its quote bytes.

        Returns an already-resolved :class:`asyncio.Future` of
        :meth:`~repro.service.catalog.ServiceCatalog.quote`, so
        ``await batcher.price(...)`` never suspends.  Must be called
        from the event-loop thread.  Unknown names and detail levels
        raise :class:`~repro.exceptions.ServiceError` at once.
        """
        if not self._running:
            raise ServiceError("micro-batcher is not running; call start() first")
        quote = self.catalog.quote(contract, load, detail)
        self.n_bills += 1
        if perfconfig.observability_enabled():
            self._record(contract, load, detail)
        future = asyncio.get_running_loop().create_future()
        future.set_result(quote)
        return future

    def _record(self, contract: str, load: str, detail: str) -> None:
        summary = json.loads(self.catalog.quote(contract, load))
        record(
            RunManifest(
                kind="service_request",
                name=f"{contract}|{load}",
                created_unix=time.time(),
                # settled at catalog construction: answering costs no settle
                wall_s=0.0,
                cpu_s=0.0,
                seeds={"price": self.catalog.price_seed},
                params={
                    "op": "price",
                    "contract": contract,
                    "load": load,
                    "detail": detail,
                },
                payload={
                    "total": summary["total"],
                    "currency": summary["currency"],
                },
            )
        )
