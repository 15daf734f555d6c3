"""Command line of the benchmark suite.

One workload run, as the benchmark contract calls it (prints the result
object as its last stdout line)::

    python3 benchmarks/suite/run.py --workload NAME --seed N --seconds S --trace 0|1

The suite commands (each workload in a fresh interpreter)::

    PYTHONPATH=src python -m benchmarks.suite run --seed 0 [--traced] [--out FILE]
    PYTHONPATH=src python -m benchmarks.suite spread --runs 10 [--out FILE]
    PYTHONPATH=src python -m benchmarks.suite compare A B [--pairs 10]

``compare`` takes two ``spread`` output files, or two checkouts to run
alternately, pair by pair.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from .common import (
    ROOT, SPEC_PATH, SRC, environment, log, remove_tree, result_line, spec, work_dir,
)

#: Workload name -> (module, function) measuring it.
WORKLOADS = {
    "serve-summary": ("serve", "measure"),
    "serve-full": ("serve", "measure"),
    "population": ("billing", "measure_population"),
    "reprice": ("billing", "measure_reprice"),
    "grid": ("grid", "measure"),
}

#: A workload run that takes longer than this is killed and fails.
RUN_TIMEOUT_S = 170


def _measure(name: str, seed: int, seconds: float, trace: bool, scale: float):
    import importlib

    module_name, fn_name = WORKLOADS[name]
    module = importlib.import_module(f"benchmarks.suite.{module_name}")
    fn = getattr(module, fn_name)
    if module_name == "serve":
        return fn(name, seed, seconds, trace, scale)
    return fn(seed, seconds, trace, scale)


def single_run(argv: List[str]) -> int:
    """Measure one workload once; the last stdout line is the result object."""
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="size factor for smoke tests (1.0 = the benchmark's sizes)",
    )
    parser.add_argument("--detail", help="also write the full run record here")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir() or not SPEC_PATH.is_file():
        print(f"no program to measure: {SRC / 'repro'} or {SPEC_PATH} is missing",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    result = _measure(args.workload, args.seed, args.seconds, trace, args.scale)
    line = result_line(result, trace)
    if args.detail:
        Path(args.detail).write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "trace": trace,
            "correct": result.correct, "attempted": result.attempted,
            "failed": result.failed, "checks": result.checks,
            "metrics": line["metrics"], "notes": result.notes,
        }, default=str))
    for name, m in line["metrics"].items():
        print(f"{args.workload:<14} {name:<54} {m['value']:>14.6g} {m['unit']}")
    failed_checks = sorted(k for k, ok in result.checks.items() if not ok)
    if failed_checks:
        print(f"{args.workload:<14} FAILED CHECKS: {', '.join(failed_checks)}")
    print(json.dumps(line))
    return 0


def run_child(
    workload: str, seed: int, seconds: float, trace: bool,
    root: Path = ROOT, scale: float = 1.0,
) -> Dict:
    """One workload run in a fresh interpreter; returns its full record."""
    scratch = work_dir()
    try:
        detail = scratch / "detail.json"
        cmd = [
            sys.executable, str(root / "benchmarks" / "suite" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace)),
            "--scale", str(scale), "--detail", str(detail),
        ]
        proc = subprocess.run(
            cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
        if proc.returncode != 0 or not detail.exists():
            raise RuntimeError(
                f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
            )
        return json.loads(detail.read_text())
    finally:
        remove_tree(scratch)


def _values(record: Dict) -> Dict[str, float]:
    return {k: m["value"] for k, m in record["metrics"].items()}


def cmd_run(args) -> int:
    names = args.workloads or list(WORKLOADS)
    records = {}
    ok = True
    for name in names:
        log(f"running {name} (seed {args.seed}, {'traced' if args.traced else 'untraced'})")
        rec = run_child(name, args.seed, args.seconds, args.traced)
        records[name] = rec
        invalid = [k for k, v in rec["checks"].items() if not v]
        ok = ok and rec["correct"]
        print(f"== {name}: attempted {rec['attempted']} failed {rec['failed']}"
              f"{' INVALID/FAILED: ' + ', '.join(invalid) if invalid else ''}")
        for metric, m in rec["metrics"].items():
            print(f"   {metric:<54} {m['value']:>14.6g} {m['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "traced": args.traced, "seconds": args.seconds,
             "environment": environment(), "workloads": records},
            separators=(",", ":"), default=str,
        ) + "\n")
    return 0 if ok else 1


def _collect(root: Path, names, seeds, seconds) -> Dict[str, List[Dict[str, float]]]:
    runs: Dict[str, List[Dict[str, float]]] = {n: [] for n in names}
    for seed in seeds:
        for name in names:
            log(f"{root}: {name} seed {seed}")
            runs[name].append(_values(run_child(name, seed, seconds, False, root)))
    return runs


def cmd_spread(args) -> int:
    from .compare import spread_rows

    names = args.workloads or list(WORKLOADS)
    seeds = [args.seed] * args.runs if args.same_seed else [
        args.seed + i for i in range(args.runs)
    ]
    runs = _collect(ROOT, names, seeds, args.seconds)
    print(f"{'workload':<14} {'metric':<16} {'median':>12} {'rel IQR':>8} "
          f"{'bound>=':>8}")
    for w, metric, med, spread, bound, flag in spread_rows(runs, spec()["end_to_end"]):
        print(f"{w:<14} {metric:<16} {med:>12.6g} {spread:>8.2%} {bound:>8.2%} {flag}")
    if args.out:
        Path(args.out).write_text(json.dumps({"seeds": seeds, "runs": runs}, indent=1))
    return 0


def cmd_compare(args) -> int:
    from .compare import MIN_PAIRS, compare_runs

    a_path, b_path = Path(args.a), Path(args.b)
    names = args.workloads or list(WORKLOADS)
    if a_path.is_dir() and b_path.is_dir():
        a_runs = {n: [] for n in names}
        b_runs = {n: [] for n in names}
        for k in range(args.pairs):
            order = [(a_path, a_runs), (b_path, b_runs)]
            if k % 2:
                order.reverse()
            for name in names:
                for root, sink in order:
                    log(f"pair {k}: {root} {name}")
                    sink[name].append(
                        _values(run_child(name, k, args.seconds, False, root.resolve()))
                    )
    else:
        a_runs = json.loads(a_path.read_text())["runs"]
        b_runs = json.loads(b_path.read_text())["runs"]
    n_pairs = min(len(v) for v in list(a_runs.values()) + list(b_runs.values()))
    if n_pairs < MIN_PAIRS:
        print(f"note: {n_pairs} pairs; no gain can be shown with fewer than {MIN_PAIRS}")
    metrics = spec()["end_to_end"]
    table = compare_runs(a_runs, b_runs, metrics)
    print(f"{'workload':<14} " + " ".join(f"{m['name']:<16}" for m in metrics))
    regressed = False
    for workload, row in table.items():
        print(f"{workload:<14} " + " ".join(f"{row[m['name']]:<16}" for m in metrics))
        regressed = regressed or "regression" in row.values()
    return 1 if regressed else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--workload" in argv:
        return single_run(argv)
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.suite", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    common.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS))
    run = sub.add_parser("run", parents=[common], help="every workload once")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--traced", action="store_true", help="per-layer ledger run")
    run.add_argument("--out")
    spread = sub.add_parser("spread", parents=[common], help="N untraced runs")
    spread.add_argument("--runs", type=int, default=10)
    spread.add_argument("--seed", type=int, default=0)
    spread.add_argument("--same-seed", action="store_true")
    spread.add_argument("--out")
    comp = sub.add_parser("compare", parents=[common], help="parent A vs change B")
    comp.add_argument("a")
    comp.add_argument("b")
    comp.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    return {"run": cmd_run, "spread": cmd_spread, "compare": cmd_compare}[
        args.command
    ](args)
