"""Chaos-serve benchmark: served throughput under wire faults.

Measures what the resilience PR costs and what it buys, end-to-end
through the seeded :class:`~repro.robustness.netfaults.FaultyProxy`:

* ``equivalence`` — before any timing, every (contract, load) pair in
  the request mix is priced both directly (``ServiceCatalog.price`` →
  ``encode_bill``) and through the proxy on a clean wire, and the two
  ``json.dumps(..., sort_keys=True)`` encodings must be
  **byte-identical**.  The same check is re-embedded in *every* fault
  pass below (over the answered responses), so a throughput number can
  never come from a corrupted or double-settled answer.
* ``engine_direct`` — the raw pricing ceiling, no sockets.
* ``clean_wire`` — pipelined concurrent requests through server + proxy
  + :class:`~repro.service.resilience.SelfHealingClient` on a fault-free
  wire, plus a one-request-at-a-time sequential pass.  The gate number
  is the dimensionless ``clean_path_speedup`` = concurrent ÷ sequential
  requests/s: it regresses only if the resilience machinery (idempotency
  bookkeeping, frame taxonomy, brownout observation) starts taxing the
  pipelined path.
* ``fault:<mode>`` — the same workload with the proxy armed (reset,
  tear, disconnect, delay, slowloris at ``--fault-rate``).  Reports the
  sustained requests/s, the degradation ratio vs the clean wire, the
  client's reconnect/retry work, the server's idempotent replays —
  and asserts every request was answered byte-identically.

The regression gate is dimensionless so a slower CI host cannot trip
it: ``--compare BASELINE --max-regression R`` fails (exit 1) when
``clean_path_speedup`` fell by more than ``R``× against the baseline
file, and hard-fails whenever it drops below parity or any embedded
byte-identical check failed.

Usage::

    PYTHONPATH=src python benchmarks/bench_service_chaos.py \
        [--requests 400] [--concurrency 32] [--clients 8] \
        [--fault-rate 0.3] [--sites 4] [--days 7] [--seed 0] [--repeat 2] \
        [--out BENCH_service_chaos.json] \
        [--compare BENCH_service_chaos.json --max-regression 2.0]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.robustness.netfaults import FaultyProxy, WireFaultSpec
from repro.robustness.supervisor import RetryPolicy
from repro.service.batching import encode_bill
from repro.service.catalog import ServiceCatalog, default_catalog
from repro.service.resilience import SelfHealingClient
from repro.service.server import ContractPricingServer

#: The fault modes the degradation table measures (clean is the baseline).
BENCH_FAULT_MODES = ("reset", "tear", "disconnect", "delay", "slowloris")


def _mix(catalog: ServiceCatalog, n: int) -> List[Tuple[str, str]]:
    """Deterministic request mix: round-robin over contract x load."""
    contracts = catalog.contract_names()
    loads = catalog.load_names()
    return [
        (contracts[i % len(contracts)], loads[(i * 3) % len(loads)])
        for i in range(n)
    ]


def _expected(catalog: ServiceCatalog, mix: List[Tuple[str, str]]) -> Dict:
    """Direct-engine canonical bytes for every pair in the mix."""
    return {
        pair: json.dumps(encode_bill(catalog.price(*pair)), sort_keys=True)
        for pair in set(mix)
    }


def _wire_spec(mode: Optional[str], rate: float) -> WireFaultSpec:
    if mode is None:
        return WireFaultSpec()
    # keep the delaying modes quick: the bench measures throughput
    # degradation shape, not patience
    return WireFaultSpec(
        delay_s=0.002, trickle_bytes=32, **{f"{mode}_rate": rate}
    )


def run_wire(
    catalog: ServiceCatalog,
    mix: List[Tuple[str, str]],
    expected: Dict,
    mode: Optional[str],
    rate: float,
    concurrency: int,
    n_clients: int,
    seed: int,
) -> Dict[str, object]:
    """One timed pass: server + armed proxy + a self-healing client pool.

    A *pool* of clients, not one: the proxy draws its fault plan per
    connection, so a single long-lived connection would sample the
    fault law exactly once per run.  With ``n_clients`` connections
    (plus every reconnect opening a fresh one), ``--fault-rate`` is the
    fraction of connections that actually misbehave.

    Every request must terminate answered (the retry budget is sized
    for moderate fault rates) and every answer must match the direct
    engine bytes — the embedded differential that makes the throughput
    numbers trustworthy.
    """

    async def once() -> Dict[str, object]:
        server = ContractPricingServer(catalog, port=0)
        await server.start()
        proxy = FaultyProxy(server.address, _wire_spec(mode, rate), seed=seed)
        await proxy.start()
        clients = [
            SelfHealingClient(
                *proxy.address,
                retry=RetryPolicy(
                    max_attempts=12, base_backoff_s=0.005, max_backoff_s=0.1
                ),
                seed=seed + i,
            )
            for i in range(n_clients)
        ]
        gate = asyncio.Semaphore(concurrency)
        n_mismatched = 0
        n_failed = 0

        async def one(i: int, pair: Tuple[str, str]) -> None:
            nonlocal n_mismatched, n_failed
            contract, load = pair
            async with gate:
                try:
                    result = await clients[i % n_clients].call(
                        "price", {"contract": contract, "load": load}
                    )
                except Exception:
                    n_failed += 1
                    return
            if json.dumps(result, sort_keys=True) != expected[pair]:
                n_mismatched += 1

        # warm plans, contexts, and every connection before timing
        await asyncio.gather(*(one(i, mix[0]) for i in range(n_clients)))
        t0 = time.perf_counter()
        await asyncio.gather(*(one(i, pair) for i, pair in enumerate(mix)))
        dt = time.perf_counter() - t0

        replays = int(server.idempotency.stats()["n_replayed"])
        wire = proxy.report().to_dict()
        n_reconnects = sum(c.n_reconnects for c in clients)
        n_retries = sum(c.n_retries for c in clients)
        for client in clients:
            await client.close()
        await proxy.stop()
        await server.stop()
        return {
            "n_requests": len(mix),
            "elapsed_s": dt,
            "requests_per_s": len(mix) / dt,
            "n_failed": n_failed,
            "n_reconnects": n_reconnects,
            "n_retries": n_retries,
            "n_replayed": replays,
            "byte_identical": n_mismatched == 0 and n_failed == 0,
            "wire": wire,
        }

    return asyncio.run(once())


def _best_of(fn: Callable[[], Dict[str, object]], repeat: int) -> Dict[str, object]:
    """Best-throughput run of ``fn`` (each run reports ``requests_per_s``)."""
    best: Dict[str, object] = {}
    for _ in range(repeat):
        run = fn()
        if not best or run["requests_per_s"] > best["requests_per_s"]:
            best = run
    return best


def bench_engine_direct(
    catalog: ServiceCatalog, mix: List[Tuple[str, str]], repeat: int
) -> Dict[str, object]:
    """Raw pricing + encoding ceiling: no sockets, no proxy, no asyncio."""
    for pair in set(mix):  # warm every plan and price context
        catalog.price(*pair)

    def run() -> Dict[str, object]:
        t0 = time.perf_counter()
        for pair in mix:
            encode_bill(catalog.price(*pair))
        dt = time.perf_counter() - t0
        return {
            "n_requests": len(mix),
            "elapsed_s": dt,
            "requests_per_s": len(mix) / dt,
        }

    return _best_of(run, repeat)


def run_all(args: argparse.Namespace) -> Dict[str, object]:
    catalog = default_catalog(n_sites=args.sites, days=args.days, seed=args.seed)
    mix = _mix(catalog, args.requests)
    expected = _expected(catalog, mix)

    engine = bench_engine_direct(catalog, mix, args.repeat)

    clean = _best_of(
        lambda: run_wire(
            catalog, mix, expected, None, 0.0,
            args.concurrency, args.clients, args.seed,
        ),
        args.repeat,
    )
    if not clean["byte_identical"]:
        raise AssertionError("clean-wire served/direct bytes differ")
    seq_mix = mix[: max(50, args.requests // 4)]
    sequential = _best_of(
        lambda: run_wire(
            catalog, seq_mix, expected, None, 0.0, 1, 1, args.seed
        ),
        args.repeat,
    )
    speedup = clean["requests_per_s"] / sequential["requests_per_s"]
    clean_entry = dict(clean)
    clean_entry["sequential_requests_per_s"] = sequential["requests_per_s"]
    clean_entry["clean_path_speedup"] = speedup
    clean_entry["speedup"] = speedup

    faults: Dict[str, object] = {}
    for fault_mode in BENCH_FAULT_MODES:
        run = run_wire(
            catalog, mix, expected, fault_mode, args.fault_rate,
            args.concurrency, args.clients, args.seed,
        )
        run["degradation_vs_clean"] = (
            clean["requests_per_s"] / run["requests_per_s"]
        )
        faults[f"fault:{fault_mode}"] = run

    return {
        "schema": "bench_service_chaos/v1",
        "generated_unix": int(time.time()),
        "config": {
            "requests": args.requests,
            "concurrency": args.concurrency,
            "clients": args.clients,
            "fault_rate": args.fault_rate,
            "sites": args.sites,
            "days": args.days,
            "seed": args.seed,
            "repeat": args.repeat,
            "n_contracts": len(catalog.contract_names()),
        },
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "benchmarks": {
            "equivalence": {
                "n_pairs": len(expected),
                "clean_wire_byte_identical": True,
            },
            "engine_direct": engine,
            "clean_wire": clean_entry,
            **faults,
        },
    }


def check_regression(
    current: Dict[str, object], baseline_path: str, max_regression: float
) -> List[str]:
    """Dimensionless-ratio regressions of ``current`` vs a baseline file.

    The gate compares ``speedup`` entries (``clean_path_speedup``) as a
    ratio — ``baseline / current > max_regression`` fails — and
    hard-fails below parity or on any failed byte-identical check.
    """
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    failures: List[str] = []
    for name, base_entry in baseline.get("benchmarks", {}).items():
        if not isinstance(base_entry, dict) or "speedup" not in base_entry:
            continue
        cur_entry = current["benchmarks"].get(name)
        if cur_entry is None:
            continue
        base_speedup = float(base_entry["speedup"])
        cur_speedup = float(cur_entry["speedup"])
        if cur_speedup <= 0 or base_speedup / cur_speedup > max_regression:
            failures.append(
                f"{name}: clean-path speedup {cur_speedup:.2f}x vs baseline "
                f"{base_speedup:.2f}x (allowed regression {max_regression:.1f}x)"
            )
    clean = current["benchmarks"]["clean_wire"]
    if float(clean["clean_path_speedup"]) < 1.0:
        failures.append(
            f"clean_wire: clean_path_speedup "
            f"{clean['clean_path_speedup']:.2f}x fell below parity"
        )
    for name, entry in current["benchmarks"].items():
        if isinstance(entry, dict) and entry.get("byte_identical") is False:
            failures.append(f"{name}: answered bytes diverged from direct engine")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--requests", type=int, default=400,
        help="requests per timed pass",
    )
    parser.add_argument(
        "--concurrency", type=int, default=32,
        help="in-flight requests across the client pool",
    )
    parser.add_argument(
        "--clients", type=int, default=8,
        help="client pool size (connections sampling the fault law)",
    )
    parser.add_argument(
        "--fault-rate", type=float, default=0.3,
        help="per-connection fault probability for the fault passes",
    )
    parser.add_argument(
        "--sites", type=int, default=4, help="catalog loads (distinct sites)"
    )
    parser.add_argument(
        "--days", type=int, default=7, help="days per load (multiple of 7)"
    )
    parser.add_argument("--seed", type=int, default=0, help="wire-fault seed")
    parser.add_argument("--repeat", type=int, default=2, help="timing repeats")
    parser.add_argument(
        "--out", default="BENCH_service_chaos.json", help="output JSON"
    )
    parser.add_argument("--compare", default=None, help="baseline JSON to gate on")
    parser.add_argument(
        "--max-regression", type=float, default=2.0,
        help="max allowed speedup-ratio regression vs baseline",
    )
    args = parser.parse_args(argv)

    result = run_all(args)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")

    b = result["benchmarks"]
    print(
        f"chaos-serve bench ({args.requests:,} requests, "
        f"concurrency {args.concurrency}, fault rate {args.fault_rate:.0%}, "
        f"seed {args.seed})"
    )
    print(
        f"  engine direct : {b['engine_direct']['requests_per_s']:>9,.0f} req/s"
    )
    clean = b["clean_wire"]
    print(
        f"  clean wire    : {clean['requests_per_s']:>9,.0f} req/s pipelined, "
        f"{clean['sequential_requests_per_s']:,.0f} req/s sequential "
        f"(clean-path speedup {clean['clean_path_speedup']:.1f}x)"
    )
    for fault_mode in BENCH_FAULT_MODES:
        entry = b[f"fault:{fault_mode}"]
        print(
            f"  {fault_mode:<13} : {entry['requests_per_s']:>9,.0f} req/s  "
            f"({entry['degradation_vs_clean']:.2f}x slower, "
            f"{entry['n_reconnects']} reconnects, "
            f"{entry['n_replayed']} replays, byte-identical "
            f"{'yes' if entry['byte_identical'] else 'NO'})"
        )
    print(f"wrote {args.out}")

    if args.compare:
        failures = check_regression(result, args.compare, args.max_regression)
        if failures:
            print("REGRESSION vs baseline:", file=sys.stderr)
            for f in failures:
                print(f"  {f}", file=sys.stderr)
            return 1
        print(
            f"no clean-path regression vs {args.compare} "
            f"(limit {args.max_regression}x)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
