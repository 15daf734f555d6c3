"""Contract-pricing service layer: serve the billing engine over a socket.

The paper frames the center–ESP relationship as an *ongoing* pricing
dialogue; this package is the serving substrate that keeps that dialogue
going at traffic — a stdlib-asyncio request loop over line-delimited
JSON, a read-only catalog built once at startup that also settles every
(contract, load) quote, one
:meth:`~repro.contracts.billing.BillingEngine.bill_many` per load,
admission control reusing the
:class:`~repro.robustness.supervisor.RetryPolicy` backoff law, and an
MCP-style tool dispatch table that makes every named study remotely
callable.

Layering (bottom up):

* :mod:`~repro.service.catalog` — frozen contracts / loads / periods /
  plans and the encoded quotes, built at startup so the request path
  never mutates caches; the canonical wire encoding of a settled bill.
* :mod:`~repro.service.admission` — token-bucket rate limiting,
  pending-queue backpressure and request deadlines, with structured
  rejections naming the limit that fired.
* :mod:`~repro.service.batching` — the ``price`` front answering from the
  quote table, and the single pricing thread.
* :mod:`~repro.service.tools` — the named-tool dispatch table.
* :mod:`~repro.service.resilience` — the imperfect-world toolkit:
  graceful-drain accounting, the pricing-thread watchdog, brownout
  (degraded mode under sustained admission pressure), the idempotency
  replay cache, and the self-healing reconnecting client.
* :mod:`~repro.service.server` — the asyncio socket server, the wire
  protocol, and a small line-protocol client.

Start one from the shell with ``python -m repro serve`` (see
``docs/service.md`` for the operator's manual) or in-process:

>>> import asyncio
>>> from repro.service import ContractPricingServer, ServiceClient, default_catalog
>>> async def demo():
...     server = ContractPricingServer(default_catalog(n_sites=1, days=7))
...     await server.start()
...     client = await ServiceClient.connect(*server.address)
...     pong = await client.call("ping")
...     await client.close()
...     await server.stop()
...     return pong["ok"]
>>> asyncio.run(demo())
True
"""

from __future__ import annotations

from .admission import AdmissionController, AdmissionPolicy, Ticket
from .batching import MicroBatcher, encode_bill
from .catalog import ServiceCatalog, default_catalog
from .resilience import (
    BrownoutController,
    BrownoutPolicy,
    DrainReport,
    IdempotencyCache,
    PricingWatchdog,
    SelfHealingClient,
    parse_frame,
)
from .server import ContractPricingServer, ServiceClient
from .tools import ToolRegistry, ToolSpec, default_registry

__all__ = [
    "ServiceCatalog",
    "default_catalog",
    "AdmissionPolicy",
    "AdmissionController",
    "Ticket",
    "MicroBatcher",
    "encode_bill",
    "ToolSpec",
    "ToolRegistry",
    "default_registry",
    "ContractPricingServer",
    "ServiceClient",
    "SelfHealingClient",
    "DrainReport",
    "PricingWatchdog",
    "BrownoutPolicy",
    "BrownoutController",
    "IdempotencyCache",
    "parse_frame",
]
