"""CLI and API surface tests for profiling and the campaign health view.

``repro profile run`` / ``repro profile trace`` / ``repro top`` /
``repro sweep --metrics-out`` / ``repro trace --kind``, plus the
``profile=`` argument of :func:`repro.api.run` and :func:`repro.api.sweep`.
"""

import json

import pytest

from repro import api
from repro.cli import main
from repro.experiments.options import EngineOptions
from repro.observability import ProfileSession

SCALE = 0.05
ARGS = ["--scale", str(SCALE), "--mtbe", "100k", "--seed", "3"]


class TestProfileRunCommand:
    def test_writes_loadable_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "profile.json"
        assert main(["profile", "run", "fft", *ARGS, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        assert {e["ph"] for e in doc["traceEvents"]} <= {"X", "C", "i", "M"}
        assert "profile written to" in capsys.readouterr().out

    def test_timeline_bytes_match_api_profile(self, tmp_path):
        """``--timeline-out`` writes exactly the canonical timeline that
        ``api.run(..., profile=)`` records for the same point."""
        timeline = tmp_path / "timeline.json"
        assert main([
            "profile", "run", "fft", *ARGS,
            "--out", str(tmp_path / "profile.json"),
            "--timeline-out", str(timeline),
        ]) == 0
        session = ProfileSession()
        api.run(
            "fft", mtbe="100k", seed=3,
            options=EngineOptions(scale=SCALE), profile=session,
        )
        assert timeline.read_bytes() == session.sim.to_json_bytes()
        assert json.loads(timeline.read_bytes())["version"] == 1

    def test_unwritable_out_fails_cleanly(self, tmp_path, capsys):
        assert main([
            "profile", "run", "fft", *ARGS,
            "--out", str(tmp_path / "absent" / "p.json"),
        ]) == 1
        assert "cannot write profile" in capsys.readouterr().err


class TestProfileTraceCommand:
    def test_renders_a_recorded_trace(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        trace.write_text(
            '{"kind": "qm-timeout", "thread": "sink", "seq": 0}\n'
            '{"kind": "qm-timeout", "thread": "sink", "seq": 1}\n'
        )
        out = tmp_path / "profile.json"
        assert main(["profile", "trace", str(trace), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert [i["ts"] for i in instants] == [0, 1]
        assert "2 event(s)" in capsys.readouterr().out

    def test_missing_trace_fails_cleanly(self, tmp_path, capsys):
        assert main([
            "profile", "trace", str(tmp_path / "absent.jsonl"),
            "--out", str(tmp_path / "p.json"),
        ]) == 1
        assert "cannot read trace" in capsys.readouterr().err


class TestTraceKindFilter:
    @pytest.fixture
    def trace_file(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            '{"kind": "qm-timeout", "thread": "sink", "seq": 0}\n'
            '{"kind": "error-injected", "core": 0, "at_instruction": 5,'
            ' "effect": null, "masked": true, "seq": 1}\n'
            '{"kind": "qm-timeout", "thread": "dct", "seq": 2}\n'
        )
        return path

    def test_summary_counts_only_matching_kinds(self, trace_file, capsys):
        assert main(["trace", str(trace_file), "--kind", "qm-timeout"]) == 0
        out = capsys.readouterr().out
        assert "qm-timeout" in out and "error-injected" not in out

    def test_tail_respects_the_filter(self, trace_file, capsys):
        assert main([
            "trace", str(trace_file), "--tail", "5", "--kind", "error-injected"
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["kind"] == "error-injected"

    def test_kind_is_repeatable(self, trace_file, capsys):
        assert main([
            "trace", str(trace_file), "--tail", "5",
            "--kind", "qm-timeout", "--kind", "error-injected",
        ]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3


def run_demo_sweep(tmp_path, extra=()):
    db = tmp_path / "store.sqlite"
    code = main([
        "sweep", "fft", "--mtbe", "100k", "--seeds", "2",
        "--scale", str(SCALE), "--jobs", "1", "--no-cache",
        "--store", str(db), "--campaign", "demo", *extra,
    ])
    return code, db


class TestTopCommand:
    def test_campaign_health_table(self, tmp_path, capsys):
        code, db = run_demo_sweep(tmp_path)
        assert code == 0
        capsys.readouterr()
        assert main(["top", "--store", str(db), "--campaign", "demo"]) == 0
        out = capsys.readouterr().out
        assert "demo" in out
        assert "pending" in out and "executed" in out and "store hits" in out
        assert "run wall (mean)" in out

    def test_no_campaign_lists_campaigns_and_per_app_wall(self, tmp_path, capsys):
        code, db = run_demo_sweep(tmp_path)
        assert code == 0
        capsys.readouterr()
        assert main(["top", "--store", str(db)]) == 0
        out = capsys.readouterr().out
        assert "demo: 2/2 done" in out
        assert "executed wall seconds by app" in out

    def test_unknown_campaign_fails_cleanly(self, tmp_path, capsys):
        code, db = run_demo_sweep(tmp_path)
        assert code == 0
        assert main(["top", "--store", str(db), "--campaign", "nope"]) == 2
        assert "unknown campaign" in capsys.readouterr().err

    def test_empty_store_reports_no_campaigns(self, tmp_path, capsys):
        db = tmp_path / "empty.sqlite"
        from repro.experiments.store import RunStore

        RunStore(db).close()
        assert main(["top", "--store", str(db)]) == 0
        assert "no campaigns" in capsys.readouterr().out


class TestMetricsOut:
    def test_sweep_writes_prometheus_textfile(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.prom"
        code, _db = run_demo_sweep(tmp_path, ["--metrics-out", str(metrics)])
        assert code == 0
        text = metrics.read_text()
        assert "# TYPE repro_sweep_runs_executed counter" in text
        assert 'repro_sweep_runs_executed{app="fft"} 2' in text
        assert "# TYPE repro_sweep_run_wall_seconds summary" in text
        assert "metrics written to" in capsys.readouterr().out


class TestApiProfile:
    def test_run_report_carries_the_session(self):
        session = ProfileSession()
        report = api.run(
            "fft", "commguard", mtbe=100_000, seed=3,
            options=EngineOptions(scale=SCALE), profile=session,
        )
        assert report.profile is session
        assert session.sim.threads
        assert [s.name for s in session.engine.roots] == ["run"]

    def test_profiled_record_matches_unprofiled(self):
        kwargs = dict(mtbe=100_000, seed=3, options=EngineOptions(scale=SCALE))
        plain = api.run("fft", "commguard", **kwargs)
        profiled = api.run(
            "fft", "commguard", profile=ProfileSession(), **kwargs
        )
        assert profiled.record == plain.record

    def test_profiled_run_bypasses_store_hits(self, tmp_path):
        from repro.experiments.store import RunStore

        store = RunStore(tmp_path / "store.sqlite")
        kwargs = dict(
            mtbe=100_000, seed=3,
            options=EngineOptions(scale=SCALE, store=store),
        )
        api.run("fft", "commguard", **kwargs)  # populates the store
        hit = api.run("fft", "commguard", **kwargs)
        assert hit.result is None  # store hit: not simulated
        session = ProfileSession()
        profiled = api.run("fft", "commguard", profile=session, **kwargs)
        assert profiled.result is not None  # profiled: always executes
        assert session.sim.threads

    def test_sweep_records_the_span_hierarchy(self):
        session = ProfileSession()
        report = api.sweep(
            "fft", protections=["commguard"], mtbes=["100k"], seeds=2,
            options=EngineOptions(scale=SCALE, jobs=1, cache=False),
            profile=session,
        )
        assert len(report.points) == 2
        (sweep_span,) = session.engine.roots
        assert sweep_span.name == "sweep"
        child_names = [c.name for c in sweep_span.children]
        assert "cache-scan" in child_names and "execute" in child_names
        execute = sweep_span.children[child_names.index("execute")]
        assert [c.name for c in execute.children] == ["run", "run"]

    def test_unprofiled_run_report_has_no_profile(self):
        report = api.run(
            "fft", "commguard", mtbe=100_000, seed=3,
            options=EngineOptions(scale=SCALE),
        )
        assert report.profile is None
