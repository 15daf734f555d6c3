"""Command-line entry point: ``python -m repro``.

Regenerates the paper's artifacts from the terminal::

    python -m repro list                 # experiment ids + descriptions
    python -m repro run table2           # one experiment
    python -m repro run all              # everything, in registry order
    python -m repro lint                 # static analysis (tools.reprolint)
    python -m repro lint -- --list-rules # forward flags to the analyzer
    python -m repro sweep --journal J    # supervised chaos sweep, checkpointed
    python -m repro sweep --resume J     # finish an interrupted sweep
    python -m repro sweep --fabric D --shards 4   # shard a sweep directory
    python -m repro sweep --fabric D --worker     # claim/steal shards until done
    python -m repro sweep --fabric D --merge      # fold shards into one report
    python -m repro serve                # pricing service on 127.0.0.1:8765
    python -m repro serve --rate 1000 --observe   # rate-limited, audited
    python -m repro chaos-serve          # wire-fault grid against a live server
    python -m repro chaos-serve --resume J        # finish an interrupted grid
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .reporting.experiments import EXPERIMENTS, experiment_ids, run_experiment

_DESCRIPTIONS = {
    "table1": "Table 1: interview sites × countries",
    "table2": "Table 2: site × typology matrix (round-trip verified)",
    "figure1": "Figure 1: the contract typology tree",
    "text_aggregates": "§3.2.4–§3.4 in-text claims, recomputed",
    "peak_ratio": "[34]: demand-charge share vs peak/average ratio",
    "cscs": "§4: the CSCS procurement redesign",
    "lanl": "§4: office-building vs machine DR",
    "incentive_threshold": "§4: DR break-even vs program payments",
    "portfolio": "extension: the survey population, billed for a year",
}


def _run_lint(forwarded: list) -> int:
    """Dispatch ``repro lint`` to :mod:`tools.reprolint`.

    The analyzer lives beside ``src/`` in the repo checkout, not inside
    the installed package, so the repo root is added to ``sys.path``
    when needed.  Missing analyzer (e.g. a bare site-packages install)
    is a usage error, not a crash.
    """
    root = Path(__file__).resolve().parents[2]
    if str(root) not in sys.path:
        sys.path.insert(0, str(root))
    try:
        from tools.reprolint.cli import main as lint_main
    except ImportError:
        print(
            "tools.reprolint not found; `repro lint` requires a repository "
            f"checkout (looked beside {root})",
            file=sys.stderr,
        )
        return 2
    return lint_main(forwarded)


def _run_sweep(args) -> int:
    """Dispatch ``repro sweep``: a supervised, journaled chaos sweep.

    ``--resume`` rebuilds the grid from the journal header's stored
    recipe (written by :func:`repro.robustness.chaos.run_chaos_sweep`),
    so an interrupted sweep finishes from the checkpoint alone — no
    re-specification, no recomputation of completed points, and (because
    every point is self-seeded) bit-identical results.
    """
    from .exceptions import ReproError
    from .robustness.chaos import run_chaos_sweep
    from .robustness.journal import read_journal

    if args.resume:
        try:
            state = read_journal(args.resume)
        except (ReproError, OSError) as exc:
            print(f"cannot resume from {args.resume}: {exc}", file=sys.stderr)
            return 2
        params = dict(state.header.params)
        if params.pop("kind", None) != "chaos_sweep":
            print(
                f"journal {args.resume} was not written by a chaos sweep "
                "(header lacks kind='chaos_sweep')",
                file=sys.stderr,
            )
            return 2
        print(
            f"resuming sweep {state.header.sweep_id!r}: "
            f"{state.n_completed}/{state.header.n_items} items journaled"
        )
        report = run_chaos_sweep(
            dropout_rates=params["dropout_rates"],
            loss_probabilities=params["loss_probabilities"],
            seed=params["seed"],
            horizon_days=params["horizon_days"],
            peak_mw=params["peak_mw"],
            bill_error_tolerance=params["bill_error_tolerance"],
            supervised=True,
            journal=args.resume,
            parallel=False if args.serial else None,
            slow_s=params.get("slow_s", 0.0),
            kill_marker=params.get("kill_marker"),
        )
    else:
        report = run_chaos_sweep(
            dropout_rates=args.dropout,
            loss_probabilities=args.loss,
            seed=args.seed,
            horizon_days=args.horizon_days,
            peak_mw=args.peak_mw,
            supervised=True,
            journal=args.journal,
            parallel=False if args.serial else None,
        )
    print(report.to_markdown())
    if report.recovery:
        rec = report.recovery
        print(
            f"\nrecovery: {rec['n_ok']}/{rec['n_items']} ok, "
            f"{rec['n_resumed']} resumed, {rec['n_retries']} retries, "
            f"{rec['n_timeouts']} timeouts, "
            f"{rec['n_pool_rebuilds']} pool rebuilds, "
            f"{rec['n_quarantined']} quarantined"
        )
    if report.quarantined:
        for q in report.quarantined:
            print(f"quarantined item {q.index}: {q.reason}", file=sys.stderr)
        return 1
    return 0


def _run_fabric(args) -> int:
    """Dispatch the sharded modes of ``repro sweep --fabric DIR``.

    Three verbs share one sweep directory:

    * ``--shards N`` (alone) partitions the chaos grid into ``N``
      journal-backed shard files plus a manifest holding the full grid
      recipe — after this, workers need only the directory;
    * ``--worker`` rebuilds the grid from the manifest
      (:func:`repro.robustness.chaos.chaos_grid`) and runs one
      :class:`~repro.robustness.shards.ShardWorker` to completion,
      claiming, stealing and resuming shards as leases allow — run it
      from as many terminals/hosts-sharing-the-directory as you like;
    * ``--merge`` folds the shard journals into one deterministic
      report and prints it, exit 1 on quarantined points and exit 2
      while the sweep is still incomplete.
    """
    from .exceptions import ReproError
    from .robustness.chaos import DegradationReport, chaos_grid
    from .robustness.shards import (
        ShardWorker,
        create_sweep,
        merge_shard_journals,
        read_manifest,
    )

    directory = Path(args.fabric)
    try:
        if not (args.worker or args.merge):
            recipe = {
                "kind": "chaos_sweep",
                "dropout_rates": [float(d) for d in args.dropout],
                "loss_probabilities": [float(p) for p in args.loss],
                "seed": int(args.seed),
                "horizon_days": int(args.horizon_days),
                "peak_mw": float(args.peak_mw),
            }
            scenarios, _ = chaos_grid(recipe)
            manifest = create_sweep(
                directory,
                scenarios,
                n_shards=args.shards,
                sweep_id="chaos_sweep",
                params=recipe,
            )
            print(
                f"sharded sweep {manifest.sweep_id!r} created at {directory}: "
                f"{manifest.n_items} points in {manifest.n_shards} shards"
            )
            return 0
        manifest = read_manifest(directory)
        if manifest.params.get("kind") != "chaos_sweep":
            print(
                f"sweep directory {directory} was not created for a chaos "
                "sweep (manifest lacks kind='chaos_sweep')",
                file=sys.stderr,
            )
            return 2
        scenarios, point_fn = chaos_grid(manifest.params)
        if args.worker:
            worker = ShardWorker(
                directory,
                point_fn,
                scenarios,
                owner=args.owner,
                lease_s=args.lease_s,
            )
            summary = worker.run(wait=True)
            print(
                f"worker {summary.owner}: {summary.n_shards_completed} shard(s) "
                f"completed ({summary.n_steals} stolen), "
                f"{summary.n_items_computed} point(s) computed"
            )
            return 0
        report = merge_shard_journals(directory, items=scenarios)
    except (ReproError, OSError) as exc:
        print(f"sweep fabric error: {exc}", file=sys.stderr)
        return 2
    results = [r for r in report.results if r is not None]
    print(DegradationReport(results, quarantined=report.quarantined).to_markdown())
    rec = report.recovery_summary()
    print(
        f"\nmerged {rec['n_shards']} shard(s): {rec['n_ok']}/{rec['n_items']} ok, "
        f"{rec['n_shards_claimed']} first claim(s), "
        f"{rec['n_leases_stolen']} steal(s), "
        f"{rec['n_leases_resumed']} resume(s), "
        f"{rec['n_quarantined']} quarantined"
    )
    if report.quarantined:
        for q in report.quarantined:
            print(f"quarantined item {q.index}: {q.reason}", file=sys.stderr)
        return 1
    return 0


def _run_chaos_serve(args) -> int:
    """Dispatch ``repro chaos-serve``: the wire-fault grid.

    Mirrors ``repro sweep``: ``--journal`` runs a fresh supervised,
    checkpointed grid; ``--resume`` rebuilds the grid from the journal
    header's stored ``kind: service_chaos`` recipe and finishes it.
    Without either flag the grid runs unsupervised in-process.
    """
    from .exceptions import ReproError
    from .robustness.chaos_service import run_service_chaos
    from .robustness.journal import read_journal

    if args.resume:
        try:
            state = read_journal(args.resume)
        except (ReproError, OSError) as exc:
            print(f"cannot resume from {args.resume}: {exc}", file=sys.stderr)
            return 2
        params = dict(state.header.params)
        if params.pop("kind", None) != "service_chaos":
            print(
                f"journal {args.resume} was not written by a chaos-serve grid "
                "(header lacks kind='service_chaos')",
                file=sys.stderr,
            )
            return 2
        print(
            f"resuming chaos-serve grid {state.header.sweep_id!r}: "
            f"{state.n_completed}/{state.header.n_items} points journaled"
        )
        report = run_service_chaos(
            modes=params["modes"],
            rates=params["rates"],
            concurrency=params["concurrency"],
            n_requests=params["n_requests"],
            seed=params["seed"],
            n_sites=params["n_sites"],
            days=params["days"],
            retry_attempts=params["retry_attempts"],
            supervised=True,
            journal=args.resume,
            parallel=False if args.serial else None,
        )
    else:
        report = run_service_chaos(
            modes=args.modes,
            rates=args.rates,
            concurrency=args.concurrency,
            n_requests=args.requests,
            seed=args.seed,
            n_sites=args.sites,
            days=args.days,
            supervised=args.journal is not None,
            journal=args.journal,
            parallel=False if args.serial else None,
        )
    print(report.to_markdown())
    if report.recovery:
        rec = report.recovery
        print(
            f"\nrecovery: {rec['n_ok']}/{rec['n_items']} ok, "
            f"{rec['n_resumed']} resumed, {rec['n_retries']} retries, "
            f"{rec['n_timeouts']} timeouts, "
            f"{rec['n_pool_rebuilds']} pool rebuilds, "
            f"{rec['n_quarantined']} quarantined"
        )
    if report.quarantined:
        for q in report.quarantined:
            print(f"quarantined item {q.index}: {q.reason}", file=sys.stderr)
    return 0 if report.all_ok else 1


def main(argv: list = None) -> int:
    """CLI dispatcher; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate artifacts of the ICPP 2019 SC/ESP contracts paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiment ids")
    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id or 'all'")
    lint = sub.add_parser(
        "lint", help="run the reprolint static analyzer (tools.reprolint)"
    )
    lint.add_argument(
        "lint_args", nargs=argparse.REMAINDER,
        help="arguments forwarded to python -m tools.reprolint "
        "(prefix flags with `--`): --jobs N, --format human|json|sarif, "
        "--explain RPLNNN, --no-cache, --select/--ignore, ...; the "
        "analyzer's exit code is propagated unchanged",
    )
    sweep = sub.add_parser(
        "sweep",
        help="run a supervised, journaled chaos sweep (resumable)",
    )
    sweep.add_argument(
        "--journal", help="journal path for a fresh supervised sweep"
    )
    sweep.add_argument(
        "--resume", metavar="JOURNAL",
        help="resume an interrupted sweep from its journal "
        "(the grid recipe is read from the journal header)",
    )
    sweep.add_argument(
        "--dropout", type=float, nargs="+", default=[0.0, 0.01, 0.05],
        help="metering dropout rates to grid (fractions)",
    )
    sweep.add_argument(
        "--loss", type=float, nargs="+", default=[0.0, 0.1, 0.2],
        help="signal loss probabilities to grid (fractions)",
    )
    sweep.add_argument("--seed", type=int, default=0, help="world seed")
    sweep.add_argument(
        "--horizon-days", type=int, default=28, help="simulation horizon"
    )
    sweep.add_argument(
        "--peak-mw", type=float, default=8.0, help="facility peak load (MW)"
    )
    sweep.add_argument(
        "--serial", action="store_true",
        help="force the serial in-process path (no worker pool)",
    )
    sweep.add_argument(
        "--fabric", metavar="DIR",
        help="sweep directory for the sharded fabric "
        "(combine with --shards, --worker or --merge)",
    )
    sweep.add_argument(
        "--shards", type=int, default=4,
        help="number of shard journals when creating a --fabric directory",
    )
    sweep.add_argument(
        "--worker", action="store_true",
        help="run one shard worker against --fabric DIR until the sweep "
        "is complete (claims, steals and resumes shards via leases)",
    )
    sweep.add_argument(
        "--merge", action="store_true",
        help="merge the shard journals of --fabric DIR into one report",
    )
    sweep.add_argument(
        "--owner", help="lease owner id for --worker (default: host-pid)"
    )
    sweep.add_argument(
        "--lease-s", type=float, default=30.0,
        help="lease duration for --worker; a worker silent this long "
        "forfeits its shard",
    )
    srv = sub.add_parser(
        "serve",
        help="serve the pricing catalog over a local socket "
        "(line-delimited JSON; see docs/service.md)",
    )
    srv.add_argument("--host", default="127.0.0.1", help="bind address")
    srv.add_argument(
        "--port", type=int, default=8765, help="bind port (0 = ephemeral)"
    )
    # Accepted and ignored so existing command lines keep working: price
    # quotes are settled once at startup, so there is no batch to tune.
    srv.add_argument(
        "--window-ms", type=float, help="no-op (quotes are settled at startup)"
    )
    srv.add_argument(
        "--max-batch", type=int, help="no-op (quotes are settled at startup)"
    )
    srv.add_argument(
        "--columnar", action="store_true",
        help="no-op (quotes are settled at startup)",
    )
    srv.add_argument(
        "--rate", type=float, default=None,
        help="sustained admission rate in requests/s (default: unlimited)",
    )
    srv.add_argument(
        "--burst", type=int, default=16, help="token-bucket burst size"
    )
    srv.add_argument(
        "--max-pending", type=int, default=1024,
        help="shed load beyond this many in-flight requests",
    )
    srv.add_argument(
        "--timeout-s", type=float, default=None,
        help="per-request deadline in seconds (default: none)",
    )
    srv.add_argument(
        "--sites", type=int, default=8,
        help="synthetic loads in the default catalog",
    )
    srv.add_argument(
        "--days", type=int, default=28,
        help="load horizon in days (multiple of 7; weekly billing periods)",
    )
    srv.add_argument(
        "--observe", action="store_true",
        help="enable observability (metrics + per-request audit manifests)",
    )
    srv.add_argument(
        "--drain-s", type=float, default=5.0,
        help="graceful-drain deadline on shutdown: in-flight requests get "
        "this many seconds to finish before being cancelled",
    )
    chaos = sub.add_parser(
        "chaos-serve",
        help="run the wire-fault chaos grid against a live pricing server "
        "(seeded, journaled, resumable; see docs/service.md)",
    )
    chaos.add_argument(
        "--modes", nargs="+",
        default=["clean", "reset", "tear", "disconnect"],
        help="fault modes to grid (clean reset tear disconnect delay slowloris)",
    )
    chaos.add_argument(
        "--rates", type=float, nargs="+", default=[0.25, 0.5],
        help="per-connection fault probabilities to grid (fractions)",
    )
    chaos.add_argument(
        "--concurrency", type=int, default=4,
        help="simultaneous in-flight requests per scenario",
    )
    chaos.add_argument(
        "--requests", type=int, default=24,
        help="pricing requests fired per scenario",
    )
    chaos.add_argument("--seed", type=int, default=0, help="wire-fault seed")
    chaos.add_argument(
        "--sites", type=int, default=2,
        help="synthetic loads in each scenario's catalog",
    )
    chaos.add_argument(
        "--days", type=int, default=7,
        help="load horizon in days (multiple of 7)",
    )
    chaos.add_argument(
        "--journal", help="journal path for a fresh supervised grid"
    )
    chaos.add_argument(
        "--resume", metavar="JOURNAL",
        help="resume an interrupted grid from its journal "
        "(the recipe is read from the journal header)",
    )
    chaos.add_argument(
        "--serial", action="store_true",
        help="force the serial in-process path (no worker pool)",
    )
    args = parser.parse_args(argv)

    if args.command == "list":
        for eid in experiment_ids():
            print(f"{eid:<20} {_DESCRIPTIONS.get(eid, '')}")
        return 0

    if args.command == "lint":
        forwarded = list(args.lint_args)
        if forwarded[:1] == ["--"]:
            forwarded = forwarded[1:]
        return _run_lint(forwarded)

    if args.command == "sweep":
        if args.fabric:
            if args.worker and args.merge:
                print(
                    "repro sweep --fabric takes at most one of --worker "
                    "and --merge",
                    file=sys.stderr,
                )
                return 2
            if args.shards < 1:
                print("--shards must be >= 1", file=sys.stderr)
                return 2
            return _run_fabric(args)
        if args.worker or args.merge:
            print(
                "--worker/--merge need a sweep directory: "
                "repro sweep --fabric DIR ...",
                file=sys.stderr,
            )
            return 2
        if bool(args.resume) == bool(args.journal):
            print(
                "repro sweep needs exactly one of --journal (fresh run) "
                "or --resume (finish an interrupted one)",
                file=sys.stderr,
            )
            return 2
        return _run_sweep(args)

    if args.command == "chaos-serve":
        if args.resume and args.journal:
            print(
                "repro chaos-serve takes at most one of --journal (fresh "
                "run) and --resume (finish an interrupted one)",
                file=sys.stderr,
            )
            return 2
        return _run_chaos_serve(args)

    if args.command == "serve":
        from .exceptions import ReproError
        from .service.server import serve

        try:
            serve(
                host=args.host,
                port=args.port,
                rate_per_s=args.rate,
                burst=args.burst,
                max_pending=args.max_pending,
                timeout_s=args.timeout_s,
                n_sites=args.sites,
                days=args.days,
                observability=args.observe,
                drain_s=args.drain_s,
            )
        except KeyboardInterrupt:
            print("\nservice stopped")
        except ReproError as exc:
            print(f"cannot serve: {exc}", file=sys.stderr)
            return 2
        return 0

    targets = experiment_ids() if args.experiment == "all" else [args.experiment]
    for eid in targets:
        if eid not in EXPERIMENTS:
            print(
                f"unknown experiment {eid!r}; known: {', '.join(experiment_ids())}",
                file=sys.stderr,
            )
            return 2
        result = run_experiment(eid)
        print(f"{'=' * 78}\nexperiment: {eid}\n{'=' * 78}")
        print(result.text)
        if result.payload:
            print(f"\npayload: {result.payload}")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
