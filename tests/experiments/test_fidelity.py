"""Fidelity gates: tolerance bands, verdict tables, reproduction bundle."""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest

from repro.experiments.fidelity import (
    SCALE_TIERS,
    STATISTICS,
    Comparison,
    Measurement,
    PaperTarget,
    ScaleTier,
    TargetResult,
    ToleranceBand,
    Verdict,
    collect_targets,
    error_scale,
    resolve_tier,
    result_from_dict,
    targets_by_figure,
)
from repro.experiments.options import EngineOptions
from repro.cli import main as cli_main
from repro.experiments.paper import (
    DATA_DIR,
    REPRODUCTION_SCHEMA_VERSION,
    Execution,
    Provenance,
    ReproductionReport,
    render_markdown,
    run_paper,
    verdict_table,
    write_bundle,
)
from repro.experiments.registry import figure_names, resolve_figure
from repro.experiments.store import RunStore
from repro.machine.protection import ProtectionLevel


def make_target(
    name="fig0.anchor",
    figure="fig0",
    paper_value=20.0,
    band=None,
    comparison=Comparison.MATCH,
    relative=False,
):
    return PaperTarget(
        name=name,
        figure=figure,
        description="test anchor",
        paper_value=paper_value,
        unit="dB",
        band=band or ToleranceBand(2.0, 5.0, relative=relative),
        measure=Measurement("mean_quality_db", mtbe=512_000.0),
        comparison=comparison,
        source="Fig. 0",
    )


class TestToleranceBand:
    def test_boundary_exactly_pass_within_is_pass(self):
        band = ToleranceBand(pass_within=2.0, warn_within=5.0)
        assert band.classify(2.0) is Verdict.PASS

    def test_boundary_exactly_warn_within_is_warn(self):
        band = ToleranceBand(pass_within=2.0, warn_within=5.0)
        assert band.classify(5.0) is Verdict.WARN

    def test_inside_and_outside(self):
        band = ToleranceBand(pass_within=2.0, warn_within=5.0)
        assert band.classify(0.0) is Verdict.PASS
        assert band.classify(1.999) is Verdict.PASS
        assert band.classify(2.001) is Verdict.WARN
        assert band.classify(5.001) is Verdict.FAIL

    def test_zero_width_pass_band(self):
        band = ToleranceBand(pass_within=0.0, warn_within=1.0)
        assert band.classify(0.0) is Verdict.PASS
        assert band.classify(1e-9) is Verdict.WARN

    def test_nonfinite_deviation_fails(self):
        band = ToleranceBand(pass_within=2.0, warn_within=5.0)
        assert band.classify(math.inf) is Verdict.FAIL
        assert band.classify(math.nan) is Verdict.FAIL

    def test_invalid_band_rejected(self):
        with pytest.raises(ValueError):
            ToleranceBand(pass_within=5.0, warn_within=2.0)
        with pytest.raises(ValueError):
            ToleranceBand(pass_within=-1.0, warn_within=2.0)

    def test_describe_absolute_and_relative(self):
        assert ToleranceBand(2.0, 5.0).describe("dB") == "±2 dB / ±5 dB"
        assert ToleranceBand(0.1, 0.25, relative=True).describe("bits") == (
            "±10% / ±25%"
        )


class TestComparisonDeviation:
    def test_match_is_two_sided(self):
        target = make_target(comparison=Comparison.MATCH)
        assert target.deviation(23.0) == pytest.approx(3.0)
        assert target.deviation(17.0) == pytest.approx(3.0)

    def test_below_only_penalizes_exceeding(self):
        target = make_target(comparison=Comparison.BELOW)
        assert target.deviation(15.0) == 0.0
        assert target.deviation(23.0) == pytest.approx(3.0)

    def test_above_only_penalizes_falling_short(self):
        target = make_target(comparison=Comparison.ABOVE)
        assert target.deviation(25.0) == 0.0
        assert target.deviation(17.0) == pytest.approx(3.0)

    def test_relative_band_scales_by_reference(self):
        target = make_target(relative=True)
        assert target.deviation(22.0) == pytest.approx(0.1)

    def test_nonfinite_measured_is_infinite_deviation(self):
        target = make_target()
        assert target.deviation(math.nan) == math.inf
        assert target.classify(math.nan) is Verdict.FAIL


class TestScaleTiers:
    def test_three_documented_tiers(self):
        assert set(SCALE_TIERS) == {"smoke", "reduced", "full"}
        assert SCALE_TIERS["full"].app_scale == 1.0

    def test_resolve_tier_by_name_and_passthrough(self):
        tier = resolve_tier("smoke")
        assert tier.name == "smoke"
        assert resolve_tier(tier) is tier

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown scale tier"):
            resolve_tier("gigantic")

    def test_mtbe_scales_with_tier(self):
        # Expected errors-per-run is tier-invariant: the MTBE anchor
        # shrinks with the app's instruction count.
        m = Measurement("mean_quality_db", mtbe=1_000_000.0)
        smoke = m.specs(SCALE_TIERS["smoke"])
        full = m.specs(SCALE_TIERS["full"])
        factor = error_scale("jpeg", SCALE_TIERS["smoke"])
        assert 0.0 < factor < 1.0
        assert smoke[0].mtbe == pytest.approx(1_000_000.0 * factor)
        assert full[0].mtbe == pytest.approx(1_000_000.0)

    def test_error_scale_unknown_app_falls_back_to_linear(self):
        assert error_scale("no-such-app", SCALE_TIERS["reduced"]) == 0.25

    def test_error_scale_uses_instruction_ratio(self):
        # mp3 shrinks sub-linearly: the smoke factor is the measured
        # instruction ratio, not the linear 0.05 app scale.
        factor = error_scale("mp3", SCALE_TIERS["smoke"])
        assert factor == pytest.approx(897_204 / 10_253_760)
        assert factor > 0.05

    def test_error_scale_calibrated_override_wins(self):
        # jpeg's smoke tier is pinned by hand (see
        # fidelity._ERROR_SCALE_OVERRIDES) rather than derived from the
        # instruction table.
        assert error_scale("jpeg", SCALE_TIERS["smoke"]) == 0.05

    @pytest.mark.slow
    def test_instruction_count_table_tracks_reality(self):
        # The calibration anchors behind error_scale: re-measure a
        # sample of the table (smoke + reduced scales are cheap) and
        # tolerate ~25 % drift — the factor is an anchor, not a
        # contract.
        from repro.experiments.fidelity import _INSTRUCTION_COUNTS
        from repro.experiments.parallel import RunSpec
        from repro.experiments.runner import SimulationRunner
        from repro.machine.protection import ProtectionLevel

        for app, scale in (("jpeg", 0.05), ("jpeg", 0.25), ("fft", 0.05)):
            runner = SimulationRunner(scale=scale)
            record = runner.execute_spec(
                RunSpec(app=app, protection=ProtectionLevel.ERROR_FREE)
            )
            expected = _INSTRUCTION_COUNTS[app][scale]
            assert record.committed_instructions == pytest.approx(
                expected, rel=0.25
            )

    def test_seed_count_follows_tier(self):
        m = Measurement("mean_quality_db", mtbe=512_000.0)
        assert len(m.specs(SCALE_TIERS["full"])) == SCALE_TIERS["full"].seeds


class TestTargetRegistry:
    def test_collect_targets_nonempty_and_unique(self):
        targets = collect_targets()
        assert len(targets) >= 25
        names = [t.name for t in targets]
        assert len(names) == len(set(names))

    def test_every_figure_contributes(self):
        grouped = targets_by_figure(collect_targets())
        assert {
            "fig3", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
            "fig13", "fig14", "tables", "ablations", "campaign",
        } <= set(grouped)

    def test_every_target_statistic_is_registered(self):
        for target in collect_targets():
            assert target.measure.statistic in STATISTICS

    def test_target_names_follow_figure_prefix(self):
        for target in collect_targets():
            prefix = target.name.split(".", 1)[0]
            assert prefix == target.figure


class TestVerdictTable:
    def test_golden_table(self):
        results = [
            TargetResult(
                target=make_target(name="fig0.holds_20db"),
                verdict=Verdict.PASS,
                measured=19.5,
                deviation=0.5,
            ),
            TargetResult(
                target=make_target(
                    name="fig0.stays_low",
                    paper_value=0.002,
                    band=ToleranceBand(0.0, 0.002),
                    comparison=Comparison.BELOW,
                ),
                verdict=Verdict.WARN,
                measured=0.003,
                deviation=0.001,
            ),
            TargetResult(
                target=make_target(name="fig0.skipped"),
                verdict=Verdict.SKIP,
                reason="2 of 2 required runs failed",
            ),
        ]
        expected = "\n".join(
            [
                "target           paper  measured  deviation  band               verdict",
                "-----------------------------------------------------------------------",
                "fig0.holds_20db  20.00     19.50       0.50      ±2 dB / ±5 dB   ✓ pass",
                "fig0.stays_low    0.00      0.00       0.00  ±0 dB / ±0.002 dB   ~ warn",
                "fig0.skipped     20.00         -          -      ±2 dB / ±5 dB   - skip",
            ]
        )
        assert verdict_table(results) == expected

    def test_relative_deviation_rendered_as_percent(self):
        target = make_target(relative=True)
        table = verdict_table(
            [
                TargetResult(
                    target=target,
                    verdict=Verdict.PASS,
                    measured=21.0,
                    deviation=0.05,
                )
            ]
        )
        assert "5.0%" in table

    def test_ci_halfwidth_shown_for_multiseed(self):
        from repro.experiments.aggregate import summarize

        stats = summarize([19.0, 20.0, 21.0])
        table = verdict_table(
            [
                TargetResult(
                    target=make_target(),
                    verdict=Verdict.PASS,
                    measured=stats.mean,
                    deviation=0.0,
                    stats=stats,
                )
            ]
        )
        assert "±" in table.splitlines()[-1]


def make_report(results=None, execution=None):
    return ReproductionReport(
        tier=SCALE_TIERS["smoke"],
        results=results
        or [
            TargetResult(
                target=make_target(),
                verdict=Verdict.PASS,
                measured=19.5,
                deviation=0.5,
            )
        ],
        provenance=Provenance(
            git="abc1234", python="3.12.0", platform="test", repro_version="1.0.0"
        ),
        campaign="c-deadbeef",
        total_specs=1,
        execution=execution,
    )


class TestReproductionReport:
    def test_overall_verdict_precedence(self):
        def result(verdict):
            return TargetResult(target=make_target(), verdict=verdict)

        assert make_report([result(Verdict.PASS)]).verdict is Verdict.PASS
        assert (
            make_report([result(Verdict.PASS), result(Verdict.WARN)]).verdict
            is Verdict.WARN
        )
        assert (
            make_report([result(Verdict.WARN), result(Verdict.FAIL)]).verdict
            is Verdict.FAIL
        )

    def test_all_skip_report_fails(self):
        skip = TargetResult(
            target=make_target(), verdict=Verdict.SKIP, reason="runs failed"
        )
        assert make_report([skip]).verdict is Verdict.FAIL

    def test_json_roundtrip(self):
        report = make_report(
            execution=Execution(
                wall_seconds=1.5, executed=3, store_hits=2, jobs=4
            )
        )
        loaded = ReproductionReport.from_json(report.to_json())
        assert loaded.tier == report.tier
        assert loaded.campaign == report.campaign
        assert loaded.total_specs == report.total_specs
        assert loaded.provenance == report.provenance
        assert loaded.execution == report.execution
        assert [r.verdict for r in loaded.results] == [
            r.verdict for r in report.results
        ]
        assert loaded.results[0].measured == pytest.approx(19.5)
        # The roundtrip is idempotent at the JSON layer.
        assert loaded.to_json() == report.to_json()

    def test_nonfinite_measured_survives_strict_json(self):
        report = make_report(
            [
                TargetResult(
                    target=make_target(),
                    verdict=Verdict.FAIL,
                    measured=math.nan,
                    deviation=math.inf,
                )
            ]
        )
        text = report.to_json()
        json.loads(text)  # strict JSON: no NaN/Infinity literals
        assert '"nan"' in text
        loaded = ReproductionReport.from_json(text)
        assert math.isnan(loaded.results[0].measured)
        assert loaded.results[0].deviation == math.inf

    def test_schema_version_guard(self):
        data = make_report().to_dict()
        data["schema_version"] = REPRODUCTION_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema_version"):
            ReproductionReport.from_dict(data)

    def test_wrong_kind_rejected(self):
        data = make_report().to_dict()
        data["kind"] = "sweep_report"
        with pytest.raises(ValueError, match="kind"):
            ReproductionReport.from_dict(data)

    def test_target_result_roundtrip(self):
        original = TargetResult(
            target=make_target(comparison=Comparison.ABOVE),
            verdict=Verdict.WARN,
            measured=16.0,
            deviation=4.0,
        )
        loaded = result_from_dict(original.to_dict())
        assert loaded.verdict is Verdict.WARN
        assert loaded.target.name == original.target.name
        assert loaded.target.comparison is Comparison.ABOVE
        assert loaded.target.band == original.target.band
        assert loaded.measured == pytest.approx(16.0)


class TestRenderMarkdown:
    def test_structure_and_determinism(self):
        report = make_report()
        text = render_markdown(report)
        assert text.startswith("# CommGuard reproduction report")
        assert "## Provenance" in text
        assert "## Verdict summary" in text
        assert "repro paper --scale smoke" in text
        assert render_markdown(report) == text

    def test_execution_block_never_leaks_into_markdown(self):
        # Determinism contract 7: wall time and hit counts are JSON-only.
        report = make_report(
            execution=Execution(
                wall_seconds=123.456, executed=7, store_hits=9, jobs=3
            )
        )
        bare = render_markdown(make_report())
        assert render_markdown(report) == bare
        assert "123.456" not in render_markdown(report)

    def test_non_full_tier_carries_disclaimer(self):
        text = render_markdown(make_report())
        assert "bound fidelity from below" in text
        assert "--scale full" in text


@pytest.mark.slow
class TestPaperPipeline:
    def test_smoke_run_resumes_with_zero_reexecution(self, tmp_path):
        options = EngineOptions(
            jobs=1,
            cache=False,
            store=RunStore(tmp_path / "store.sqlite"),
        )
        first = run_paper("smoke", options=options)
        assert first.stats is not None and first.stats.executed > 0
        assert len(first.report.results) == len(collect_targets())
        assert first.report.counts()[Verdict.FAIL] == 0

        paths = write_bundle(first, tmp_path)
        md = (tmp_path / "REPRODUCTION.md").read_text(encoding="utf-8")
        assert (tmp_path / "reproduction.json").exists()
        assert any(p.name.endswith(".json") for p in paths[2:])

        second = run_paper("smoke", options=options)
        assert second.stats.executed == 0
        assert second.stats.cache_hits == first.stats.executed
        write_bundle(second, tmp_path)
        assert (
            tmp_path / "REPRODUCTION.md"
        ).read_text(encoding="utf-8") == md

        loaded = ReproductionReport.from_json(
            (tmp_path / "reproduction.json").read_text(encoding="utf-8")
        )
        assert loaded.campaign == first.report.campaign


#: Targets that grade claims first checked by the removed per-figure
#: benchmark asserts: each must PASS at every tier.
PORTED_TARGETS = (
    "fig9.jpeg_step_512k",
    "fig9.jpeg_step_2048k",
    "fig9.jpeg_step_8192k",
    "fig9.jpeg_gap_8192k",
    "fig9.jpeg_gap_128k",
    "fig12.header_loads_max",
    "fig12.header_stores_max",
    "fig12.audiobeamformer_lead",
    "fig13.overhead_every_app_15pct",
    "fig14.subops_every_app_25pct",
    "fig14.total_minus_header_bit",
    "fig14.jpeg_header_bit_gt_ecc",
    "fig14.fft_header_bit_gt_ecc",
)

#: Pre-existing targets whose band is tighter than a removed benchmark
#: assert on the same value: short of FAIL, the assert holds.
BOUNDING_TARGETS = (
    "fig7.jpeg_psnr_512k",
    "fig12.header_loads_gmean",
    "fig12.header_stores_gmean",
    "fig13.overhead_gmean",
    "fig14.subops_gmean",
    "tables.reliable_storage",
)


@pytest.fixture(scope="module")
def smoke_bundle(tmp_path_factory):
    """``repro paper --scale smoke`` into a fresh store and bundle."""
    root = tmp_path_factory.mktemp("paper-smoke")
    store, out = root / "store.sqlite", root / "bundle"
    argv = ["paper", "--scale", "smoke", "--store", str(store), "--out", str(out)]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert cli_main([*argv, "--jobs", "2"]) == 0
    report = ReproductionReport.from_json(
        (out / "reproduction.json").read_text(encoding="utf-8")
    )
    return store, out, report


class TestOnePath:
    """``repro figure X`` is ``repro paper`` narrowed to X's targets."""

    @pytest.mark.parametrize("name", [*figure_names(), "fig03"])
    def test_figure_prints_its_paper_section(
        self, name, smoke_bundle, monkeypatch, capsys
    ):
        store, out, _ = smoke_bundle
        monkeypatch.setenv("REPRO_STORE", str(store))
        assert cli_main(["figure", name, "--scale", "smoke"]) == 0
        captured = capsys.readouterr()
        section = out / DATA_DIR / f"{resolve_figure(name).name}.txt"
        assert captured.out == section.read_text(encoding="utf-8")
        assert "[figure] grid: 0 executed" in captured.err

    def test_ported_targets_pass(self, smoke_bundle):
        verdicts = {r.target.name: r.verdict for r in smoke_bundle[2].results}
        for name in PORTED_TARGETS:
            assert verdicts[name] is Verdict.PASS, name
        for name in BOUNDING_TARGETS:
            assert verdicts[name] is not Verdict.FAIL, name

    def test_json_rerenders_the_markdown(self, smoke_bundle):
        _, out, report = smoke_bundle
        markdown = (out / "REPRODUCTION.md").read_text(encoding="utf-8")
        assert render_markdown(report) + "\n" == markdown
