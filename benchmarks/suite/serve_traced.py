"""Run ``repro.service.server.serve`` unchanged, with the serving layers timed.

The launcher installs :class:`~benchmarks.suite.ledger.Ledger` wrappers
on the attributes the server's code resolves, captures the server object
through its public ``start``, calls ``serve()`` and, once the ``shutdown``
op has drained the server and ``serve()`` returns, writes the ledger.

    python -m benchmarks.suite.serve_traced --ledger FILE --seed S [--sites N]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import types

from benchmarks.suite.ledger import Ledger


def install(ledger: Ledger) -> list:
    """Wrap every serving layer; returns a list that receives the server."""
    from repro.service import admission, batching, catalog, server, tools

    ledger.wrap(
        server, "parse_frame", "service.resilience.parse_frame",
        after=lambda args, kwargs, result: ledger.set_unit(result[0]),
    )
    ledger.wrap(admission.AdmissionController, "admit", "service.admission.admit")
    ledger.wrap_future(batching.MicroBatcher, "price", "service.batching.price")
    ledger.wrap(catalog.ServiceCatalog, "price_many", "service.catalog.price_many")
    ledger.wrap(catalog.ServiceCatalog, "price", "service.catalog.price")
    for module in (batching, server, tools):
        ledger.wrap(module, "encode_bill", "service.batching.encode_bill")
    ledger.wrap(tools.ToolRegistry, "call", "service.tools.ToolRegistry.call")
    dumps = types.SimpleNamespace(dumps=json.dumps, loads=json.loads)
    ledger.wrap(dumps, "dumps", "service.server.json_dumps")
    server.json = dumps
    ledger.wrap(asyncio.StreamWriter, "write", "service.server.write")
    ledger.wrap_coroutine(asyncio.StreamWriter, "drain", "service.server.write")

    captured: list = []
    start = server.ContractPricingServer.start

    async def capturing_start(self):
        captured.append(self)
        return await start(self)

    server.ContractPricingServer.start = capturing_start
    return captured


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ledger", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sites", type=int, default=8)
    args = parser.parse_args(argv)
    from repro.service.server import serve

    ledger = Ledger(seed=args.seed)
    captured = install(ledger)
    serve(port=0, n_sites=args.sites)
    batcher = captured[0].batcher
    ledger.dump(
        args.ledger,
        extra={
            "batcher": {
                "n_batches": batcher.n_batches,
                "n_bills": batcher.n_bills,
                "settle_s_total": batcher.settle_s_total,
            }
        },
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
