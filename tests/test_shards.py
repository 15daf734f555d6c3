"""The sharded sweep fabric: leases, stealing, corruption, deterministic merge.

The tentpole scenario lives in :class:`TestThreeWorkerKillSteal`: a
3-worker sharded run with one worker SIGKILL'd mid-shard must — after
lease expiry, steal, and merge — produce a ``SweepReport`` bit-identical
to the uninterrupted serial run.  Everything else here builds up to that
claim: partition arithmetic, manifest identity, shard-journal corruption
asymmetry (torn tail tolerated, mid-file corruption names the one shard
to quarantine), the pure lease-resolution protocol, and the lease
conservation law enforced by ``SweepReport.accounted()``.
"""

import json
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.exceptions import SweepExecutionError
from repro.robustness.shards import (
    MANIFEST_NAME,
    Lease,
    LeaseEvent,
    ShardWorker,
    create_sweep,
    iter_merged_results,
    merge_shard_journals,
    read_manifest,
    read_shard_journal,
    resolve_leases,
    run_sharded,
    shard_path,
    shard_ranges,
)
from repro.robustness.supervisor import RetryPolicy, SweepReport

REPO = Path(__file__).resolve().parent.parent

GRID = [-4, 7, -1, 3, -9, 2, 5, -6]


def _square(x):
    return x * x


def _poison_negatives(x):
    if x < 0:
        raise ValueError(f"poison {x}")
    return x * x


def _scaled(x):
    from repro.analysis.sweep import shared_payload

    return x * shared_payload()["scale"]


def _serial_baseline(tmp_path, fn, items, n_shards):
    """The uninterrupted single-worker run every recovery must match."""
    d = tmp_path / "baseline"
    create_sweep(d, items, n_shards=n_shards)
    ShardWorker(d, fn, items, owner="serial").run(wait=True)
    return merge_shard_journals(d, items=items)


def _comparable(report: SweepReport):
    """The deterministic payload of a report: results, records, quarantine.

    Lease counters are recovery *provenance* — they legitimately differ
    between a killed-and-stolen run and a clean one — so bit-identity is
    asserted on everything else.
    """
    return (
        [pickle.dumps(r, protocol=4) for r in report.results],
        report.records,
        report.quarantined,
    )


class TestShardRanges:
    def test_balanced_partition(self):
        assert shard_ranges(7, 3) == [(0, 3), (3, 5), (5, 7)]

    def test_concatenation_covers_grid(self):
        for n_items, n_shards in [(0, 1), (1, 4), (10, 3), (100, 7)]:
            ranges = shard_ranges(n_items, n_shards)
            flat = [i for start, stop in ranges for i in range(start, stop)]
            assert flat == list(range(n_items))

    def test_sizes_differ_by_at_most_one(self):
        sizes = [stop - start for start, stop in shard_ranges(100, 7)]
        assert max(sizes) - min(sizes) <= 1

    def test_invalid_arguments(self):
        with pytest.raises(SweepExecutionError):
            shard_ranges(-1, 2)
        with pytest.raises(SweepExecutionError):
            shard_ranges(5, 0)


class TestManifest:
    def test_create_writes_manifest_and_shard_headers(self, tmp_path):
        d = tmp_path / "sweep"
        manifest = create_sweep(d, GRID, n_shards=3, sweep_id="demo")
        assert manifest.n_items == len(GRID) and manifest.n_shards == 3
        assert read_manifest(d) == manifest
        for k in range(3):
            state = read_shard_journal(shard_path(d, k))
            assert (state.start, state.stop) == manifest.ranges()[k]
            assert state.pending() == list(range(state.start, state.stop))

    def test_create_twice_refuses(self, tmp_path):
        d = tmp_path / "sweep"
        create_sweep(d, GRID, n_shards=2)
        with pytest.raises(SweepExecutionError, match="already holds a manifest"):
            create_sweep(d, GRID, n_shards=2)

    def test_manifest_bytes_are_stable(self, tmp_path):
        create_sweep(tmp_path / "a", GRID, n_shards=2, clock=lambda: 5.0)
        create_sweep(tmp_path / "b", GRID, n_shards=2, clock=lambda: 5.0)
        assert (tmp_path / "a" / MANIFEST_NAME).read_bytes() == (
            tmp_path / "b" / MANIFEST_NAME
        ).read_bytes()

    def test_corrupt_manifest_named(self, tmp_path):
        d = tmp_path / "sweep"
        create_sweep(d, GRID, n_shards=2)
        (d / MANIFEST_NAME).write_text("{nope")
        with pytest.raises(SweepExecutionError, match=MANIFEST_NAME):
            read_manifest(d)

    def test_worker_rejects_different_grid(self, tmp_path):
        d = tmp_path / "sweep"
        create_sweep(d, GRID, n_shards=2)
        with pytest.raises(SweepExecutionError, match="fingerprint mismatch"):
            ShardWorker(d, _square, [x + 1 for x in GRID], owner="w")
        with pytest.raises(SweepExecutionError, match="8-item grid"):
            ShardWorker(d, _square, GRID[:3], owner="w")

    def test_merge_rejects_different_grid(self, tmp_path):
        d = tmp_path / "sweep"
        run_sharded(_square, GRID, d, n_shards=2)
        with pytest.raises(SweepExecutionError, match="fingerprint mismatch"):
            merge_shard_journals(d, items=[x + 1 for x in GRID])


class TestShardJournalCorruption:
    """Satellite: corruption errors must name the shard, not 'the journal'."""

    def _completed_dir(self, tmp_path):
        d = tmp_path / "sweep"
        run_sharded(_square, GRID, d, n_shards=2)
        return d

    def test_midfile_corruption_names_shard_path_and_line(self, tmp_path):
        d = self._completed_dir(tmp_path)
        victim = shard_path(d, 1)
        lines = victim.read_text().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]  # tear a *middle* record
        victim.write_text("\n".join(lines) + "\n")
        with pytest.raises(SweepExecutionError) as exc_info:
            read_shard_journal(victim)
        message = str(exc_info.value)
        assert str(victim) in message and "line 3" in message
        assert "quarantine" in message and "unaffected" in message
        # the other shard is untouched and still reads clean
        assert read_shard_journal(shard_path(d, 0)).complete

    def test_torn_final_line_is_dropped_and_resumed(self, tmp_path):
        d = tmp_path / "sweep"
        create_sweep(d, GRID, n_shards=1)
        worker = ShardWorker(d, _square, GRID, owner="a", max_items=3)
        assert worker.run(wait=False).aborted
        victim = shard_path(d, 0)
        with open(victim, "a") as fh:
            fh.write('{"kind": "item", "index": 3, "fing')  # crash mid-write
        state = read_shard_journal(victim)
        assert state.n_dropped == 1
        assert sorted(state.results) == [0, 1, 2]
        # a new worker truncates the torn tail and finishes the shard; its
        # clock runs an hour ahead, so it sees "a"'s lease as expired and
        # steals at once instead of waiting out the real 30 s lease
        ShardWorker(
            d, _square, GRID, owner="b", clock=lambda: time.time() + 3600.0
        ).run(wait=True)
        report = merge_shard_journals(d, items=GRID)
        assert report.results == [x * x for x in GRID]

    def test_conflicting_duplicate_fingerprint_raises(self, tmp_path):
        d = self._completed_dir(tmp_path)
        victim = shard_path(d, 0)
        lines = victim.read_text().splitlines()
        record = json.loads(lines[2])
        record["fingerprint"] = "sha256:" + "0" * 64
        lines.append(json.dumps(record, sort_keys=True))
        lines.append('{"kind": "lease", "action": "release", "owner": "x", '
                     '"t_unix": 0.0, "deadline_unix": 0.0}')
        victim.write_text("\n".join(lines) + "\n")
        with pytest.raises(SweepExecutionError, match="different fingerprints"):
            read_shard_journal(victim)

    def test_out_of_range_index_raises(self, tmp_path):
        d = self._completed_dir(tmp_path)
        victim = shard_path(d, 0)
        lines = victim.read_text().splitlines()
        record = json.loads(lines[2])
        record["index"] = 999
        lines[2] = json.dumps(record, sort_keys=True)
        victim.write_text("\n".join(lines) + "\n")
        with pytest.raises(SweepExecutionError, match="outside this shard's range"):
            read_shard_journal(victim)

    def test_empty_shard_file_raises_with_remedy(self, tmp_path):
        d = self._completed_dir(tmp_path)
        shard_path(d, 1).write_text("")
        with pytest.raises(SweepExecutionError, match="quarantine"):
            read_shard_journal(shard_path(d, 1))

    def test_deleted_shard_is_rebuilt_and_recomputed(self, tmp_path):
        # The corruption remedy says "delete the shard file and re-run a
        # worker" — so a worker must rebuild a missing shard from the
        # manifest (byte-identical header) and recompute only its range.
        d = self._completed_dir(tmp_path)
        original_header = shard_path(d, 1).read_text().splitlines()[0]
        shard_path(d, 1).unlink()
        summary = ShardWorker(d, _square, GRID, owner="repair").run(wait=True)
        assert summary.n_shards_completed == 1
        assert shard_path(d, 1).read_text().splitlines()[0] == original_header
        report = merge_shard_journals(d, items=GRID)
        assert report.results == [x * x for x in GRID]


class TestLeaseResolution:
    """resolve_leases is a pure function of the event list."""

    def test_first_claim(self):
        acc = resolve_leases([LeaseEvent("claim", "a", 0.0, 10.0)])
        assert acc.holder == Lease("a", 10.0)
        assert (acc.holder_kind, acc.n_first) == ("first", 1)

    def test_active_lease_rejects_contender(self):
        acc = resolve_leases([
            LeaseEvent("claim", "a", 0.0, 10.0),
            LeaseEvent("claim", "b", 5.0, 15.0),
        ])
        assert acc.holder.owner == "a" and acc.n_rejected == 1

    def test_expired_lease_is_stolen(self):
        acc = resolve_leases([
            LeaseEvent("claim", "a", 0.0, 10.0),
            LeaseEvent("claim", "b", 10.0, 20.0),  # expiry is t >= deadline
        ])
        assert acc.holder.owner == "b"
        assert (acc.holder_kind, acc.n_steals) == ("steal", 1)

    def test_same_owner_reclaim_is_resume(self):
        acc = resolve_leases([
            LeaseEvent("claim", "a", 0.0, 10.0),
            LeaseEvent("claim", "a", 50.0, 60.0),
        ])
        assert (acc.holder_kind, acc.n_resumes, acc.n_steals) == ("resume", 1, 0)

    def test_claim_after_release_is_resume_not_steal(self):
        acc = resolve_leases([
            LeaseEvent("claim", "a", 0.0, 10.0),
            LeaseEvent("release", "a", 5.0, 5.0),
            LeaseEvent("claim", "b", 6.0, 16.0),
        ])
        assert (acc.holder_kind, acc.n_resumes, acc.n_steals) == ("resume", 1, 0)

    def test_heartbeat_extends_holder_only(self):
        acc = resolve_leases([
            LeaseEvent("claim", "a", 0.0, 10.0),
            LeaseEvent("heartbeat", "b", 1.0, 99.0),  # stranger: ignored
            LeaseEvent("heartbeat", "a", 5.0, 15.0),
            LeaseEvent("claim", "b", 12.0, 22.0),  # a's lease now runs to 15
        ])
        assert acc.holder.owner == "a" and acc.n_rejected == 1

    def test_release_by_stranger_ignored(self):
        acc = resolve_leases([
            LeaseEvent("claim", "a", 0.0, 10.0),
            LeaseEvent("release", "b", 1.0, 1.0),
        ])
        assert acc.holder.owner == "a"

    def test_unknown_action_raises(self):
        with pytest.raises(SweepExecutionError, match="unknown lease action"):
            resolve_leases([LeaseEvent("grab", "a", 0.0, 1.0)])

    def test_conservation_over_interleaving(self):
        events = [
            LeaseEvent("claim", "a", 0.0, 10.0),
            LeaseEvent("claim", "b", 2.0, 12.0),   # rejected
            LeaseEvent("claim", "b", 10.0, 20.0),  # steal
            LeaseEvent("claim", "b", 25.0, 35.0),  # resume (same owner)
            LeaseEvent("release", "b", 30.0, 30.0),
            LeaseEvent("claim", "c", 31.0, 41.0),  # resume (after release)
        ]
        acc = resolve_leases(events)
        assert acc.n_claims == acc.n_first + acc.n_steals + acc.n_resumes
        assert (acc.n_first, acc.n_steals, acc.n_resumes, acc.n_rejected) == (
            1, 1, 2, 1,
        )


class TestSingleWorker:
    def test_results_in_grid_order(self, tmp_path):
        report = run_sharded(_square, GRID, tmp_path / "s", n_shards=3)
        assert report.results == [x * x for x in GRID]
        assert report.accounted() and report.ok
        assert report.n_shards == 3 and report.n_shards_claimed == 3
        assert report.n_leases_stolen == 0

    def test_more_shards_than_items(self, tmp_path):
        report = run_sharded(_square, [2, 3], tmp_path / "s", n_shards=5)
        assert report.results == [4, 9]
        # empty shards are complete by definition and never claimed
        assert report.n_shards_claimed == 2
        assert report.accounted()

    def test_shared_payload_reaches_fn(self, tmp_path):
        report = run_sharded(
            _scaled, [1, 2, 3], tmp_path / "s", n_shards=2,
            shared={"scale": 10},
        )
        assert report.results == [10, 20, 30]

    def test_quarantine_with_provenance(self, tmp_path):
        retry = RetryPolicy(max_attempts=2, base_backoff_s=0.001, max_backoff_s=0.002)
        report = run_sharded(
            _poison_negatives, [3, -4, 5], tmp_path / "s", n_shards=2,
            retry=retry,
        )
        assert report.results == [9, None, 25]
        assert [q.index for q in report.quarantined] == [1]
        assert "poison -4" in report.quarantined[0].reason
        assert report.quarantined[0].item_repr == "-4"
        assert report.n_retries == 1  # one failed first attempt
        assert report.accounted() and not report.ok

    def test_iter_merged_results_streams_in_order(self, tmp_path):
        d = tmp_path / "s"
        run_sharded(_square, GRID, d, n_shards=4)
        assert list(iter_merged_results(d)) == [x * x for x in GRID]

    def test_incomplete_sweep_refuses_merge(self, tmp_path):
        d = tmp_path / "s"
        create_sweep(d, GRID, n_shards=2)
        ShardWorker(d, _square, GRID, owner="a", max_items=2).run(wait=False)
        with pytest.raises(SweepExecutionError, match="incomplete"):
            merge_shard_journals(d, items=GRID)
        with pytest.raises(SweepExecutionError, match="incomplete"):
            list(iter_merged_results(d))
        partial = merge_shard_journals(d, items=GRID, allow_partial=True)
        assert partial.results[:2] == [16, 49] and partial.results[2:] == [None] * 6
        assert not partial.accounted()  # holes are not accounted coverage

    def test_worker_summary_counts(self, tmp_path):
        d = tmp_path / "s"
        create_sweep(d, GRID, n_shards=2)
        summary = ShardWorker(d, _square, GRID, owner="w").run(wait=True)
        assert summary.n_shards_completed == 2
        assert summary.n_items_computed == len(GRID)
        assert summary.n_claims == 2 and summary.n_steals == 0
        assert not summary.aborted


class TestCrashAndSteal:
    """Deterministic kill/steal via injected clocks and max_items."""

    def test_abort_leaves_lease_unreleased(self, tmp_path):
        d = tmp_path / "s"
        create_sweep(d, GRID, n_shards=2)
        victim = ShardWorker(
            d, _square, GRID, owner="victim", lease_s=10.0,
            clock=lambda: 1000.0, max_items=2,
        )
        assert victim.run(wait=False).aborted
        state = read_shard_journal(shard_path(d, 0))
        acc = resolve_leases(state.lease_events)
        assert acc.holder == Lease("victim", 1010.0)  # never released

    def test_steal_resumes_from_last_fsynced_record(self, tmp_path):
        d = tmp_path / "s"
        create_sweep(d, GRID, n_shards=2)
        ShardWorker(
            d, _square, GRID, owner="victim", lease_s=10.0,
            clock=lambda: 1000.0, max_items=3,
        ).run(wait=False)
        thief = ShardWorker(
            d, _square, GRID, owner="thief", lease_s=10.0,
            clock=lambda: 2000.0,  # victim's lease long expired
        )
        summary = thief.run(wait=True)
        assert summary.n_steals == 1
        assert summary.n_items_computed == len(GRID) - 3
        report = merge_shard_journals(d, items=GRID)
        baseline = _serial_baseline(tmp_path, _square, GRID, n_shards=2)
        assert _comparable(report) == _comparable(baseline)
        assert report.n_leases_stolen == 1
        assert report.accounted()

    def test_same_owner_reattach_is_resume(self, tmp_path):
        d = tmp_path / "s"
        create_sweep(d, GRID, n_shards=1)
        ShardWorker(
            d, _square, GRID, owner="w", lease_s=10.0,
            clock=lambda: 1000.0, max_items=2,
        ).run(wait=False)
        ShardWorker(
            d, _square, GRID, owner="w", lease_s=10.0, clock=lambda: 1001.0,
        ).run(wait=True)
        report = merge_shard_journals(d, items=GRID)
        assert report.n_leases_resumed == 1 and report.n_leases_stolen == 0
        assert report.accounted()

    def test_active_foreign_lease_not_stolen_without_wait(self, tmp_path):
        d = tmp_path / "s"
        create_sweep(d, GRID, n_shards=1)
        ShardWorker(
            d, _square, GRID, owner="victim", lease_s=3600.0,
            clock=lambda: 1000.0, max_items=2,
        ).run(wait=False)
        contender = ShardWorker(
            d, _square, GRID, owner="contender", lease_s=10.0,
            clock=lambda: 1001.0,  # victim's lease still active
        )
        summary = contender.run(wait=False)
        assert summary.n_claims == 0 and summary.n_items_computed == 0


class TestReportAccounting:
    """The lease conservation law in SweepReport.accounted()."""

    def _report(self, **leases):
        return SweepReport(results=[1], n_shards=2, **leases)

    def test_conserved_counters_pass(self):
        report = self._report(
            n_shards_claimed=2, n_leases_claimed=4,
            n_leases_stolen=1, n_leases_resumed=1,
        )
        assert report.accounted()

    def test_lost_steal_provenance_fails(self):
        report = self._report(
            n_shards_claimed=2, n_leases_claimed=4,
            n_leases_stolen=0, n_leases_resumed=1,
        )
        assert not report.accounted()

    def test_more_first_claims_than_shards_fails(self):
        report = self._report(n_shards_claimed=3, n_leases_claimed=3)
        assert not report.accounted()

    def test_unsharded_report_skips_lease_law(self):
        assert SweepReport(results=[1]).accounted()

    def test_recovery_summary_carries_lease_keys(self, tmp_path):
        report = run_sharded(_square, GRID, tmp_path / "s", n_shards=2)
        summary = report.recovery_summary()
        assert summary["n_shards"] == 2
        assert summary["n_leases_claimed"] == summary["n_shards_claimed"]


_VICTIM_DRIVER = """
import sys, time
from repro.robustness.shards import ShardWorker

def slow_square(x):
    time.sleep(0.25)
    return x * x

items = [int(v) for v in sys.argv[2].split(",")]
ShardWorker(sys.argv[1], slow_square, items, owner="victim",
            lease_s=2.0).run(wait=True)
"""

_SURVIVOR_DRIVER = """
import sys
from repro.robustness.shards import ShardWorker

def square(x):
    return x * x

items = [int(v) for v in sys.argv[2].split(",")]
ShardWorker(sys.argv[1], square, items, owner=sys.argv[3],
            lease_s=2.0, poll_s=0.1).run(wait=True)
"""


class TestThreeWorkerKillSteal:
    """ISSUE acceptance: SIGKILL one of three workers, steal, merge — bit-identical."""

    @pytest.mark.slow
    def test_three_workers_one_sigkilled_merge_bit_identical(self, tmp_path):
        d = tmp_path / "sweep"
        items = GRID + [8, -7, 6, -5]
        create_sweep(d, items, n_shards=3, sweep_id="kill-steal")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        argv = [sys.executable, "-c", _VICTIM_DRIVER, str(d),
                ",".join(str(x) for x in items)]
        victim = subprocess.Popen(
            argv, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        # Wait for durable progress on the victim's shard, then SIGKILL:
        # no cleanup handler runs, the lease simply stops being renewed.
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            try:
                if any(
                    read_shard_journal(shard_path(d, k)).results
                    for k in range(3)
                ):
                    break
            except SweepExecutionError:
                pass
            time.sleep(0.05)
        else:  # pragma: no cover - diagnostic path
            victim.kill()
            pytest.fail("victim worker made no journal progress in time")
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)

        killed_items = sum(
            len(read_shard_journal(shard_path(d, k)).results) for k in range(3)
        )
        assert 1 <= killed_items < len(items)

        # Two surviving workers race for the remaining shards and steal
        # the victim's once its 2s lease expires.
        survivors = [
            subprocess.Popen(
                [sys.executable, "-c", _SURVIVOR_DRIVER, str(d),
                 ",".join(str(x) for x in items), f"survivor-{i}"],
                env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            for i in range(2)
        ]
        for proc in survivors:
            assert proc.wait(timeout=120) == 0

        merged = merge_shard_journals(d, items=items)
        baseline = _serial_baseline(tmp_path, _square, items, n_shards=3)
        assert _comparable(merged) == _comparable(baseline)
        assert merged.accounted()
        assert merged.n_leases_stolen >= 1  # the victim's shard was stolen
        assert merged.n_shards == 3 and merged.n_shards_claimed == 3
