"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import _parse_mtbe, build_parser, main
from repro.experiments.registry import figure_names
from repro.experiments.store import RunStore


class TestMtbeParsing:
    def test_plain_number(self):
        assert _parse_mtbe("64000") == 64_000

    def test_k_suffix(self):
        assert _parse_mtbe("512k") == 512_000

    def test_m_suffix(self):
        assert _parse_mtbe("1M") == 1_000_000
        assert _parse_mtbe("2.5m") == 2_500_000

    def test_rejects_nonpositive(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_mtbe("0")


class TestFaultModelOption:
    def test_default_is_bit_flip(self):
        args = build_parser().parse_args(["run", "fft"])
        assert args.fault_model == "bit_flip"
        args = build_parser().parse_args(["sweep", "fft"])
        assert args.fault_model == "bit_flip"

    def test_spec_is_canonicalized(self):
        args = build_parser().parse_args(
            ["run", "fft", "--fault-model", "burst:p_cluster=0.7,max_len=4"]
        )
        assert args.fault_model == "burst:max_len=4,p_cluster=0.7"

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "fft", "--fault-model", "meteor_strike"]
            )

    def test_unknown_param_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "fft", "--fault-model", "burst:dwell=5"]
            )

    def test_list_shows_fault_models(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fault models" in out
        for name in ("bit_flip", "burst", "control_flow", "queue_state", "sticky"):
            assert name in out

    def test_run_reports_fault_model(self, capsys):
        code = main(
            ["run", "fft", "--mtbe", "100k", "--scale", "0.05",
             "--fault-model", "sticky:dwell=50000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fault model" in out
        assert "sticky:dwell=50000" in out

    def test_sweep_reports_fault_model_and_ci(self, capsys):
        code = main(
            ["sweep", "fft", "--mtbe", "100k", "--seeds", "3",
             "--scale", "0.05", "--no-cache", "--jobs", "1",
             "--fault-model", "control_flow"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fault model control_flow" in out
        assert "±" in out  # mean ±CI cells
        assert "mean ±95% CI" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fft"])
        assert args.protection == "commguard"
        assert args.mtbe is None

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "quake"])

    def test_figure_choices_cover_all_artifacts(self):
        expected = {
            "fig3", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
            "fig13", "fig14", "tables", "ablations", "campaign",
        }
        assert set(figure_names()) == expected
        for name in expected:
            assert build_parser().parse_args(["figure", name]).name == name


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "jpeg" in out and "fig14" in out

    def test_run_error_free(self, capsys):
        code = main(["run", "fft", "--scale", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "error-free" in out
        assert "committed instructions" in out

    def test_run_with_errors(self, capsys):
        code = main(
            ["run", "complex-fir", "--mtbe", "30k", "--scale", "0.05",
             "--protection", "ppu-reliable-queue"]
        )
        assert code == 0
        assert "ppu-reliable-queue" in capsys.readouterr().out

    def test_sweep(self, capsys):
        code = main(
            ["sweep", "fft", "--mtbe", "100k", "--seeds", "1", "--scale", "0.05",
             "--no-cache", "--jobs", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "100k" in out
        assert "[sweep]" in out  # engine stats line

    def test_sweep_populates_cache(self, capsys, tmp_path):
        argv = ["sweep", "fft", "--mtbe", "100k", "--seeds", "1",
                "--scale", "0.05", "--jobs", "1"]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert main(argv) == 0
        second = capsys.readouterr()
        assert "(1 cached)" in second.out
        # cached rerun prints the identical table
        assert first.out.splitlines()[:3] == second.out.splitlines()[:3]
        # The default store is a plain cache: no campaign is recorded.
        assert "campaign" not in first.err
        store = RunStore(tmp_path / "default-store.sqlite")
        assert len(store) == 1
        assert store.campaign_ids() == ()

    def test_no_cache_skips_the_default_store(self, capsys, tmp_path):
        argv = ["sweep", "fft", "--mtbe", "100k", "--seeds", "1",
                "--scale", "0.05", "--jobs", "1", "--no-cache"]
        assert main(argv) == 0
        assert main(argv) == 0
        assert "(0 cached)" in capsys.readouterr().out
        assert not (tmp_path / "default-store.sqlite").exists()

    def test_cache_subcommand_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "info"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["paper", "--no-cache"])

    def test_figure_accepts_engine_options(self):
        args = build_parser().parse_args(["figure", "fig10", "--jobs", "4"])
        assert args.jobs == 4
        assert args.scale == "reduced"  # the paper pipeline's default tier
        args = build_parser().parse_args(["figure", "fig10", "--scale", "smoke"])
        assert args.scale == "smoke"
        for removed in (["--no-cache"], ["--scale", "0.1"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["figure", "fig10", *removed])

    def test_figure_tables(self, capsys):
        assert main(["figure", "tables"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("### `tables`")
        assert "tables.reliable_storage" in captured.out
        assert "[figure] grid: 0 executed, 0 store hits" in captured.err


class TestFaultToleranceFlags:
    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep", "fft"])
        assert args.retries == 0
        assert args.run_timeout is None
        assert not args.keep_going

    def test_invalid_values_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "fft", "--retries", "-1"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "fft", "--run-timeout", "0"])

    def test_sweep_accepts_fault_tolerance_flags(self, capsys):
        code = main(
            ["sweep", "fft", "--mtbe", "100k", "--seeds", "1",
             "--scale", "0.05", "--no-cache", "--jobs", "1",
             "--retries", "2", "--run-timeout", "60"]
        )
        assert code == 0
        assert "100k" in capsys.readouterr().out

    @pytest.fixture
    def faulty_runner(self, monkeypatch):
        # The CLI has no fault flag of its own (the hook is a test seam),
        # so wedge one into the runner the engine builder constructs.
        import functools

        from repro.experiments import options as builder
        from tests.experiments import _fault_hooks as hooks

        monkeypatch.setattr(
            builder,
            "ParallelRunner",
            functools.partial(
                builder.ParallelRunner, fault_hook=hooks.fail_everything
            ),
        )

    def test_strict_failure_aborts_with_hint(self, capsys, faulty_runner):
        code = main(
            ["sweep", "fft", "--mtbe", "100k", "--seeds", "1",
             "--scale", "0.05", "--no-cache", "--jobs", "1"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "[sweep] aborted" in err
        assert "--keep-going" in err

    def test_keep_going_reports_failures_and_finishes(
        self, capsys, faulty_runner
    ):
        code = main(
            ["sweep", "fft", "--mtbe", "100k", "--seeds", "1",
             "--scale", "0.05", "--no-cache", "--jobs", "1", "--keep-going"]
        )
        assert code == 0
        captured = capsys.readouterr()
        (row,) = [
            line for line in captured.out.splitlines()
            if line.startswith("100k")
        ]
        assert row.split()[1:] == ["-", "-"]  # empty chunk renders placeholders
        assert "1 failed" in captured.out
        assert "[sweep] failed:" in captured.err

    def test_bad_repro_jobs_is_one_clean_error_line(
        self, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        code = main(
            ["sweep", "fft", "--mtbe", "100k", "--seeds", "1",
             "--scale", "0.05", "--no-cache"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err
        assert "REPRO_JOBS='lots'" in err


class TestStoreCommand:
    SWEEP = ["sweep", "fft", "--mtbe", "100k", "--seeds", "2",
             "--scale", "0.05", "--jobs", "1", "--no-cache"]

    @pytest.fixture
    def populated_db(self, tmp_path, capsys):
        db = str(tmp_path / "db.sqlite")
        assert main([*self.SWEEP, "--store", db]) == 0
        capsys.readouterr()
        return db

    def test_sweep_store_announces_campaign_then_reruns_cached(
        self, capsys, tmp_path
    ):
        db = str(tmp_path / "db.sqlite")
        assert main([*self.SWEEP, "--store", db]) == 0
        err = capsys.readouterr().err
        assert "[sweep] campaign c-" in err
        assert db in err
        assert main([*self.SWEEP, "--store", db]) == 0
        assert "(2 cached)" in capsys.readouterr().out

    def test_stats_lists_campaign_progress(self, capsys, populated_db):
        assert main(["store", "stats", "--db", populated_db]) == 0
        out = capsys.readouterr().out
        assert "runs (fft)" in out
        assert "2/2 done" in out

    def test_query_json_rows(self, capsys, populated_db):
        import json

        assert main(
            ["store", "query", "--db", populated_db, "--json", "--app", "fft"]
        ) == 0
        rows = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert len(rows) == 2
        assert {row["seed"] for row in rows} == {0, 1}
        assert all(row["protection"] == "commguard" for row in rows)
        assert all("written_at" in row["provenance"] for row in rows)

    def test_query_table_accepts_protection_shorthand(
        self, capsys, populated_db
    ):
        assert main(
            ["store", "query", "--db", populated_db, "--protection", "commguard"]
        ) == 0
        assert "2 row(s)" in capsys.readouterr().out
        # "ppu" canonicalizes to ppu-only, which this store has none of.
        assert main(
            ["store", "query", "--db", populated_db, "--protection", "ppu"]
        ) == 0
        assert "0 row(s)" in capsys.readouterr().out

    def test_gc_reports_collection(self, capsys, populated_db):
        assert main(["store", "gc", "--db", populated_db]) == 0
        assert "[store]" in capsys.readouterr().out

    def test_export_writes_jsonl(self, capsys, populated_db, tmp_path):
        import json

        out_path = str(tmp_path / "runs.jsonl")
        assert main(
            ["store", "export", "--db", populated_db, "--output", out_path]
        ) == 0
        assert "exported 2 run(s)" in capsys.readouterr().out
        with open(out_path) as stream:
            lines = [json.loads(line) for line in stream]
        assert len(lines) == 2
        assert all(line["spec"]["app"] == "fft" for line in lines)

    def test_resume_unknown_campaign_is_clean_error(
        self, capsys, populated_db
    ):
        assert main(
            ["sweep", "--store", populated_db, "--resume", "c-missing"]
        ) == 2
        assert "repro sweep:" in capsys.readouterr().err

    def test_sweep_without_app_or_resume_is_usage_error(self, capsys):
        assert main(["sweep"]) == 2
        assert "an app is required" in capsys.readouterr().err

    def test_resume_completes_campaign_from_cli(
        self, capsys, populated_db
    ):
        campaign = RunStore(populated_db).campaign_ids()[0]
        assert main(
            ["sweep", "--store", populated_db, "--resume", campaign,
             "--jobs", "1"]
        ) == 0
        captured = capsys.readouterr()
        assert "[sweep] resuming" in captured.err
        assert "(2 cached)" in captured.out


class TestSweepPaths:
    """Every way of sweeping one grid prints the same summary: a live
    sweep, a stored campaign, its resume and ``repro report`` of the
    campaign's document."""

    GRID = ["sweep", "fft", "--mtbe", "64k", "256k", "--seeds", "2",
            "--scale", "0.05"]

    @staticmethod
    def _summary(out: str) -> str:
        """*out* without the engine stats line and the output notice."""
        return "".join(
            line for line in out.splitlines(keepends=True)
            if not re.match(r"\[sweep\] \d+/\d+ runs ", line)
            and not line.startswith("report written to")
        )

    def test_live_stored_resumed_and_reported_sweeps_agree(
        self, capsys, tmp_path
    ):
        db = str(tmp_path / "db.sqlite")
        first, second = tmp_path / "A.json", tmp_path / "B.json"
        assert main([*self.GRID, "--jobs", "1"]) == 0
        live = capsys.readouterr().out
        assert main(
            [*self.GRID, "--jobs", "1", "--store", db, "--output", str(first)]
        ) == 0
        stored = capsys.readouterr().out
        (campaign,) = RunStore(db).campaign_ids()
        assert main(
            ["sweep", "--store", db, "--resume", campaign, "--jobs", "2",
             "--output", str(second)]
        ) == 0
        resumed = capsys.readouterr().out
        assert main(["report", str(first)]) == 0
        reported = capsys.readouterr().out
        summaries = [
            self._summary(out) for out in (live, stored, resumed, reported)
        ]
        assert "64k" in summaries[0] and "256k" in summaries[0]
        assert summaries == [summaries[0]] * 4
        assert first.read_bytes() == second.read_bytes()

    def test_error_free_sweep_is_one_point(self, capsys):
        assert main(
            [*self.GRID, "--protection", "error-free", "--jobs", "1",
             "--no-cache"]
        ) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        (row, stats) = lines[lines.index("-" * len(lines[1])) + 1:]
        assert row.split()[0] == "-"
        assert stats.startswith("[sweep] 1/1 runs ")


class TestSweepGridArguments:
    """Bad grid arguments are usage errors caught while parsing: exit 2,
    one line, nothing run and no store written."""

    @pytest.mark.parametrize(
        "bad", [["--mtbe", "abc"], ["--seeds", "0"]], ids=["mtbe", "seeds"]
    )
    def test_rejected_at_parse_time(self, bad, capsys, tmp_path):
        db = tmp_path / "db.sqlite"
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "fft", *bad, "--scale", "0.05", "--store", str(db)])
        assert exit_info.value.code == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not db.exists()
        assert not (tmp_path / "default-store.sqlite").exists()

    def test_default_ladder_is_parsed(self):
        args = build_parser().parse_args(["sweep", "fft"])
        assert args.mtbe == [64_000.0, 256_000.0, 1_000_000.0, 4_000_000.0]
        assert build_parser().parse_args(
            ["sweep", "fft", "--mtbe", "1M"]
        ).mtbe == [1_000_000.0]
