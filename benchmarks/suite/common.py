"""Shared helpers: paths, statistics, process readings and the result line.

Every workload module returns a :class:`RunResult`; :func:`result_line`
turns it into the one JSON object a run prints last.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

SUITE_DIR = Path(__file__).resolve().parent
ROOT = SUITE_DIR.parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Scratch space for journals and sweep directories, inside the checkout.
WORK_DIR = ROOT / ".suite_work"


def spec() -> dict:
    """The parsed ``BENCHMARK.json`` (metric names, units, bounds)."""
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def metric_units(kind: str) -> Dict[str, str]:
    """``name -> unit`` for the ``end_to_end`` or ``per_layer`` list."""
    return {m["name"]: m["unit"] for m in spec()[kind]}


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(ROOT), env.get("PYTHONPATH", "")) if p
    )
    return env


def work_dir() -> Path:
    """A fresh scratch directory under :data:`WORK_DIR` (caller removes it)."""
    WORK_DIR.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=WORK_DIR))


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_DIR.rmdir()
    except OSError:
        pass


# -- statistics ------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def windowed_percentile(
    times: Sequence[float], values: Sequence[float], q: float, window_s: float
) -> float:
    """Median over ``window_s`` windows of each window's ``q`` percentile.

    ``times[i]`` places ``values[i]`` in a window.  A burst of host
    contention then spoils only the windows it covers, not the run.
    """
    if not times:
        raise ValueError("windowed percentile of an empty sample")
    t0 = min(times)
    windows: Dict[int, List[float]] = {}
    for t, v in zip(times, values):
        windows.setdefault(int((t - t0) / window_s), []).append(v)
    full = [w for w in windows.values() if len(w) * 2 >= len(values) / len(windows)]
    return statistics.median(percentile(w, q) for w in full)


def windowed_rate(durations: Sequence[float], sizes: Sequence[float], window_s: float) -> float:
    """Median rate over consecutive ops grouped into windows of ``window_s`` busy time."""
    rates = []
    busy = done = 0.0
    for d, n in zip(durations, sizes):
        busy += d
        done += n
        if busy >= window_s:
            rates.append(done / busy)
            busy = done = 0.0
    if not rates:
        rates.append(done / busy)
    return statistics.median(rates)


def rel_iqr(values: Sequence[float]) -> float:
    """Quartile distance over the median, as ``statistics.quantiles`` gives it."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


# -- process readings ------------------------------------------------------


def cpu_seconds(pid: int) -> float:
    """utime + stime of process ``pid`` from ``/proc`` (seconds)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` of process ``pid`` (default: this process), in MB."""
    status = Path(f"/proc/{pid or os.getpid()}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def environment() -> Dict[str, object]:
    """Host facts every committed result carries."""
    import numpy
    import scipy

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    fs_type = "unknown"
    try:
        out = subprocess.run(
            ["df", "--output=fstype", str(ROOT)], capture_output=True, text=True,
            timeout=10,
        ).stdout.split()
        fs_type = out[-1] if out else fs_type
    except (OSError, subprocess.SubprocessError):
        pass
    sha = "unknown"
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or sha
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "journal_fs_type": fs_type,
        "git_sha": sha,
    }


# -- results ---------------------------------------------------------------


@dataclass
class RunResult:
    """What one workload run measured.

    ``end_to_end`` and ``per_layer`` map metric names to values in the
    units ``BENCHMARK.json`` declares; ``notes`` carries everything else
    worth keeping (sample counts, digests, the traced ledger).
    """

    attempted: int = 0
    failed: int = 0
    checks: Dict[str, bool] = field(default_factory=dict)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)

    def check(self, name: str, ok: bool) -> None:
        """Record one correctness or validity gate; a failure counts as a failed op."""
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok:
            self.failed += 1

    @property
    def correct(self) -> bool:
        return all(self.checks.values()) and self.failed == 0


def result_line(result: RunResult, trace: bool) -> Dict[str, object]:
    """The result object: every declared metric, nothing else.

    End-to-end metrics must all be measured.  A per-layer metric of a
    layer the workload never calls (a serving layer on ``reprice``)
    reads 0 and is listed in ``notes["layers_not_on_path"]``.
    """
    kind = "per_layer" if trace else "end_to_end"
    values = dict(result.per_layer if trace else result.end_to_end)
    units = metric_units(kind)
    missing = sorted(set(units) - set(values))
    if trace:
        result.notes["layers_not_on_path"] = missing
        values.update(dict.fromkeys(missing, 0.0))
    elif missing:
        raise RuntimeError(f"workload did not measure {missing}")
    return {
        "correct": result.correct,
        "attempted": int(max(result.attempted, 1)),
        "failed": int(result.failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


class Deadline:
    """A measuring window of ``seconds`` starting now."""

    def __init__(self, seconds: float) -> None:
        self.end = time.perf_counter() + float(seconds)

    def over(self) -> bool:
        return time.perf_counter() >= self.end


def log(msg: str) -> None:
    """Progress lines go to stderr; stdout ends with the result object."""
    print(msg, file=sys.stderr, flush=True)


def digest_floats(values: List[float]) -> str:
    """Short content digest of a list of floats (bit-exact)."""
    h = hashlib.sha256()
    for v in values:
        h.update(struct.pack("<d", v))
    return h.hexdigest()[:16]
