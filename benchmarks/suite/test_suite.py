"""Smoke tests for the benchmark suite, at tiny sizes.

    PYTHONPATH=src python -m pytest benchmarks/suite
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
import threading

import pytest

from benchmarks.suite.common import ROOT, RunResult, spec
from benchmarks.suite.compare import verdict
from benchmarks.suite.grid import Round, check_round
from benchmarks.suite.loadgen import LoadGenerator, request_template

WORKLOADS = [w["name"] for w in spec()["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted(workload, trace, tmp_path):
    detail = tmp_path / "detail.json"
    proc = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "0.05",
         "--detail", str(detail)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    kind = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec()[kind]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    assert line["attempted"] >= 1
    # validity gates (load generator saturation) may trip on a busy host;
    # every correctness gate must hold
    checks = json.loads(detail.read_text())["checks"]
    assert [k for k, ok in checks.items() if not ok and not k.startswith("valid.")] == []


def _flipping_server(flip_index: int):
    """A one-connection server answering every request with ``{"total": 1.5}``,
    except the ``flip_index``-th answer, which has one byte changed."""
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def serve() -> None:
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as lines:
            for n, line in enumerate(lines):
                rid = json.loads(line)["id"]
                result = b'{"total": 1.6}' if n == flip_index else b'{"total": 1.5}'
                conn.sendall(b'{"id": %d, "ok": true, "result": %s}\n' % (rid, result))
        listener.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return port, thread


def test_a_flipped_response_byte_counts_as_failed():
    port, thread = _flipping_server(flip_index=3)
    gen = LoadGenerator("127.0.0.1", port, n_conns=1)
    requests = [request_template("price", {"contract": "c", "load": "l"}, {"total": 1.5})]
    try:
        stats = gen.open_loop(requests, rate_per_s=400.0, seconds=0.2, seed=0)
    finally:
        gen.close()
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert stats.sent == stats.answered > 10
    assert stats.failed == 1


def test_a_grid_mismatch_fails_the_run():
    rnd = Round(results={"plain": [(1.0, 0.5, 0.5, 0.0)], "supervised": [(1.0, 0.5, 0.5, 1e-12)]})
    result = RunResult(attempted=2)
    check_round(result, rnd)
    assert not result.correct
    assert result.failed == 1


def test_comparator_needs_nine_of_ten_wins():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.5, 99.5]
    nine = [p + 5.0 for p in parent[:9]] + [parent[9] - 1.0]
    eight = [p + 5.0 for p in parent[:8]] + [parent[8] - 1.0, parent[9] - 1.0]
    assert verdict(parent, nine, higher=True, bound=0.05) == "gain"
    assert verdict(parent, eight, higher=True, bound=0.05) != "gain"
    assert verdict(parent, [p * 0.8 for p in parent], higher=True, bound=0.05) == "regression"
    assert verdict(parent, [p * 0.8 for p in parent], higher=False, bound=0.05) == "gain"
