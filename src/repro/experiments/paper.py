"""The ``repro paper`` pipeline: regenerate the whole reproduction and
grade it against the paper.

One command orchestrates every registered :class:`PaperTarget` (see
:mod:`~repro.experiments.fidelity`) through the store-backed parallel
engine and emits a versioned artifact bundle:

* ``REPRODUCTION.md`` — the human fidelity report: per-figure verdict
  tables (pass / warn / fail per target, with confidence intervals where
  the measurement aggregates seeds), ASCII measured-vs-paper charts, and
  provenance.
* ``reproduction.json`` — the same content machine-readable, guarded by
  :data:`REPRODUCTION_SCHEMA_VERSION` exactly like the run/sweep report
  documents in :mod:`repro.api`.
* ``reproduction_data/<figure>.json`` / ``.txt`` — per-figure data and
  rendered sections.

The pipeline is **resumable**: the deduplicated spec grid is frozen as a
:class:`~repro.experiments.store.RunStore` campaign, every completed run
is flushed as it finishes, and re-running the same tier against the same
store re-executes nothing (the engine reports pure store hits).  Faults
are tolerated with the PR-5 semantics — bounded retries, per-run
timeouts, keep-going — and a target whose runs all failed is reported as
SKIP instead of sinking the pipeline.

Determinism contract (the 7th in ARCHITECTURE.md): same store + same
scale tier ⇒ byte-identical ``REPRODUCTION.md``.  Everything in the
markdown derives from the stored records and fixed environment facts
(git describe, python, platform); wall-clock time and hit/executed
counts live only in ``reproduction.json``'s advisory ``execution`` block.
"""

from __future__ import annotations

import json
import math
import platform
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

from repro.experiments.fidelity import (
    PaperTarget,
    ScaleTier,
    TargetResult,
    Verdict,
    collect_targets,
    evaluate_target,
    resolve_tier,
    result_from_dict,
)
from repro.experiments.options import EngineOptions, build_engine
from repro.experiments.parallel import RunSpec, SweepStats
from repro.experiments.plotting import ascii_chart
from repro.experiments.registry import figure_specs, resolve_figure
from repro.experiments.report import format_table
from repro.experiments.store import RunStore, _git_describe, derive_campaign_id

#: Version tag of the ``reproduction.json`` document.  Bump on
#: incompatible shape changes; readers reject newer documents by name.
REPRODUCTION_SCHEMA_VERSION = 1

#: Subdirectory of the bundle holding per-figure data files.
DATA_DIR = "reproduction_data"


@dataclass(frozen=True)
class Provenance:
    """Where a reproduction report came from.

    Only *deterministic* environment facts live here (they feed
    ``REPRODUCTION.md`` and must honour the byte-identity contract);
    wall-clock execution facts go into :class:`Execution`.
    """

    git: str | None
    python: str
    platform: str
    repro_version: str

    @classmethod
    def capture(cls) -> "Provenance":
        import repro

        return cls(
            git=_git_describe(),
            python=platform.python_version(),
            platform=platform.platform(),
            repro_version=repro.__version__,
        )

    def to_dict(self) -> dict:
        return {
            "git": self.git,
            "python": self.python,
            "platform": self.platform,
            "repro_version": self.repro_version,
        }


@dataclass(frozen=True)
class Execution:
    """Advisory (non-deterministic) facts of one pipeline execution.

    Serialized into ``reproduction.json`` only — never into
    ``REPRODUCTION.md``, which must stay byte-identical across reruns of
    the same store + tier.
    """

    wall_seconds: float
    executed: int
    store_hits: int
    jobs: int

    def to_dict(self) -> dict:
        return {
            "wall_seconds": self.wall_seconds,
            "executed": self.executed,
            "store_hits": self.store_hits,
            "jobs": self.jobs,
        }


@dataclass
class ReproductionReport:
    """The graded reproduction: every target's verdict, plus provenance."""

    tier: ScaleTier
    results: list[TargetResult]
    provenance: Provenance
    campaign: str
    total_specs: int
    execution: Execution | None = None

    # -- aggregate views -----------------------------------------------------

    def counts(self) -> dict[Verdict, int]:
        counts = {verdict: 0 for verdict in Verdict}
        for result in self.results:
            counts[result.verdict] += 1
        return counts

    @property
    def verdict(self) -> Verdict:
        """Overall verdict: worst of FAIL > WARN > PASS; SKIPs do not
        drag the overall down on their own (they are reported, and an
        all-SKIP report still fails)."""
        counts = self.counts()
        if counts[Verdict.FAIL] or not any(
            counts[v] for v in (Verdict.PASS, Verdict.WARN)
        ):
            return Verdict.FAIL
        if counts[Verdict.WARN]:
            return Verdict.WARN
        return Verdict.PASS

    def by_figure(self) -> Mapping[str, list[TargetResult]]:
        grouped: dict[str, list[TargetResult]] = {}
        for result in self.results:
            grouped.setdefault(result.target.figure, []).append(result)
        return grouped

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        counts = self.counts()
        return {
            "schema_version": REPRODUCTION_SCHEMA_VERSION,
            "kind": "reproduction_report",
            "tier": {
                "name": self.tier.name,
                "app_scale": self.tier.app_scale,
                "seeds": self.tier.seeds,
                "description": self.tier.description,
            },
            "campaign": self.campaign,
            "total_specs": self.total_specs,
            "provenance": self.provenance.to_dict(),
            "summary": {
                "verdict": self.verdict.value,
                **{v.value: counts[v] for v in Verdict},
            },
            "targets": [result.to_dict() for result in self.results],
            "execution": (
                self.execution.to_dict() if self.execution is not None else None
            ),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "ReproductionReport":
        version = data.get("schema_version")
        if version != REPRODUCTION_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported reproduction schema_version {version!r}; this "
                f"reader supports version {REPRODUCTION_SCHEMA_VERSION}"
            )
        if data.get("kind") != "reproduction_report":
            raise ValueError(
                f"wrong document kind {data.get('kind')!r}; expected "
                "'reproduction_report'"
            )
        tier_data = data["tier"]
        execution = data.get("execution")
        return cls(
            tier=ScaleTier(
                name=tier_data["name"],
                app_scale=tier_data["app_scale"],
                seeds=tier_data["seeds"],
                description=tier_data.get("description", ""),
            ),
            results=[result_from_dict(entry) for entry in data["targets"]],
            provenance=Provenance(**data["provenance"]),
            campaign=data["campaign"],
            total_specs=data["total_specs"],
            execution=Execution(**execution) if execution is not None else None,
        )

    @classmethod
    def from_json(cls, text: str) -> "ReproductionReport":
        """Inverse of :meth:`to_json` (rejects unknown schema versions)."""
        return cls.from_dict(json.loads(text))


# -- execution -----------------------------------------------------------------


@dataclass
class PaperRun:
    """What one pipeline invocation produced."""

    report: ReproductionReport
    stats: SweepStats | None
    store: RunStore
    #: Bundle paths, populated by :func:`write_bundle`.
    paths: list[Path] = field(default_factory=list)


def _dedup_specs(
    targets: Sequence[PaperTarget], tier: ScaleTier
) -> tuple[list[RunSpec], dict[str, list[int]]]:
    """The union grid: deduplicated specs + per-target indices into it.

    Targets routinely share runs (every error-free CommGuard run feeds
    fig12, fig13 *and* fig14); the pipeline executes each distinct spec
    exactly once and fans its record back out to every asking target.
    """
    specs: list[RunSpec] = []
    index_of: dict[RunSpec, int] = {}
    needs: dict[str, list[int]] = {}
    for target in targets:
        indices = []
        for spec in target.measure.specs(tier):
            if spec not in index_of:
                index_of[spec] = len(specs)
                specs.append(spec)
            indices.append(index_of[spec])
        needs[target.name] = indices
    return specs, needs


def run_paper(
    tier: str | ScaleTier = "smoke",
    *,
    figure: str | None = None,
    options: EngineOptions | None = None,
    progress=None,
) -> PaperRun:
    """Execute every registered paper target at *tier* and grade it.

    *figure* (a registered name or alias) narrows the run to that
    figure's targets.  Their sub-grid is a campaign of its own in the
    same store, and runs are keyed by content, so after a whole-paper
    run at the same tier it executes nothing and grades the same
    verdicts.

    *options* carries the engine knobs (``jobs``, ``retries``,
    ``run_timeout``, ``trace_dir``, ``store``);
    ``options.store=None`` selects the default store whatever
    ``options.cache`` says — the pipeline always records a campaign, that
    is what makes it resumable.  ``options.scale`` is ignored: the tier
    owns the scale.  The grid runs keep-going (a failed spec SKIPs its
    targets instead of aborting the reproduction).
    """
    import time

    tier = resolve_tier(tier)
    opts = options or EngineOptions()
    store = RunStore.coerce(opts.store if opts.store is not None else True)
    targets = collect_targets()
    if figure is not None:
        name = resolve_figure(figure).name
        targets = tuple(t for t in targets if t.figure == name)
    specs, needs = _dedup_specs(targets, tier)
    keys = [spec.content_key(tier.app_scale) for spec in specs]
    campaign = derive_campaign_id(specs, tier.app_scale, keys)
    store.begin_campaign(
        campaign,
        specs,
        tier.app_scale,
        app="paper",
        metric="fidelity",
        options={"tier": tier.name, "seeds": tier.seeds},
        keys=keys,
    )
    runner = build_engine(
        replace(opts, store=store, keep_going=True),
        tier.app_scale,
        campaign=campaign,
        progress=progress,
    )
    start = time.time()
    records = runner.run_specs(specs, keys)
    wall = time.time() - start

    results = [
        evaluate_target(
            target, tier, [records[i] for i in needs[target.name]],
            runner.executor,
        )
        for target in targets
    ]
    stats = runner.last_stats
    report = ReproductionReport(
        tier=tier,
        results=results,
        provenance=Provenance.capture(),
        campaign=campaign,
        total_specs=len(specs),
        execution=Execution(
            wall_seconds=wall,
            executed=stats.executed if stats else 0,
            store_hits=stats.cache_hits if stats else 0,
            jobs=stats.jobs if stats else 1,
        ),
    )
    return PaperRun(report=report, stats=stats, store=store)


# -- rendering -----------------------------------------------------------------


def _format_value(value: float | None, unit: str) -> str:
    if value is None:
        return "-"
    if not math.isfinite(value):
        return str(value)
    if unit == "dB":
        return f"{value:.2f}"
    if unit in ("ratio", "fraction"):
        if value != 0 and abs(value) < 0.001:
            return f"{value:.2e}"
        return f"{value:.4f}"
    if unit == "bits":
        return f"{value:,.0f}"
    return f"{value:.3f}"


def _measured_cell(result: TargetResult) -> str:
    base = _format_value(result.measured, result.target.unit)
    if result.stats is not None and result.stats.n > 1:
        return f"{base} ±{result.stats.ci_halfwidth:.2f}"
    return base


def verdict_table(results: Sequence[TargetResult]) -> str:
    """The fidelity verdict table of a group of target results."""
    rows = []
    for result in results:
        target = result.target
        if result.deviation is None:
            deviation = "-"
        elif target.band.relative:
            deviation = f"{100 * result.deviation:.1f}%"
        else:
            deviation = _format_value(result.deviation, target.unit)
        rows.append(
            [
                target.name,
                _format_value(target.paper_value, target.unit),
                _measured_cell(result),
                deviation,
                target.band.describe(target.unit),
                f"{result.verdict.symbol} {result.verdict.value}",
            ]
        )
    return format_table(
        ["target", "paper", "measured", "deviation", "band", "verdict"], rows
    )


def _figure_chart(results: Sequence[TargetResult]) -> str | None:
    """Measured-vs-paper ASCII chart over MTBE, when the figure has at
    least two MTBE-anchored targets with measurements."""
    anchored = [
        r for r in results if r.target.measure.charted and r.measured is not None
    ]
    if len(anchored) < 2:
        return None
    paper_series = [
        (float(r.target.measure.mtbe), r.target.paper_value) for r in anchored
    ]
    measured_series = [
        (float(r.target.measure.mtbe), r.measured) for r in anchored
    ]
    unit = anchored[0].target.unit
    return ascii_chart(
        {"paper": paper_series, "measured": measured_series},
        x_label="MTBE (instructions)",
        y_label=f"target value ({unit})",
        log_x=True,
    )


def figure_sections(report: ReproductionReport) -> list[tuple[str, str]]:
    """``(figure name, rendered markdown section)`` per contributing figure,
    in registry order."""
    grouped = report.by_figure()
    sections = []
    for spec in figure_specs():
        results = grouped.get(spec.name)
        if not results:
            continue
        lines = [f"### `{spec.name}` — {spec.description}"]
        if spec.paper_section:
            lines.append(f"\n*{spec.paper_section}*")
        lines.append("\n```")
        lines.append(verdict_table(results))
        chart = _figure_chart(results)
        if chart is not None:
            lines.append("\n" + chart)
        lines.append("```")
        sections.append((spec.name, "\n".join(lines)))
    return sections


def render_markdown(report: ReproductionReport) -> str:
    """The full ``REPRODUCTION.md`` text (deterministic given the store
    contents, the tier, and the environment facts in ``provenance``)."""
    counts = report.counts()
    tier = report.tier
    head = [
        "# CommGuard reproduction report",
        "",
        "> Generated by `repro paper --scale "
        f"{tier.name}` — **do not edit by hand**; regenerate with the same "
        "command.  Same store + same scale tier ⇒ byte-identical file "
        "(determinism contract 7, ARCHITECTURE.md).",
        "",
        "Machine-checked fidelity of this repository against "
        '*"CommGuard: Mitigating Communication Errors in Error-Prone '
        'Parallel Execution"* (Yetim, Malik, Martonosi — ASPLOS 2015).',
        "",
        "## Provenance",
        "",
        "```",
        format_table(
            ["field", "value"],
            [
                ["scale tier", f"{tier.name} ({tier.description})"],
                ["app scale", tier.app_scale],
                ["seeds per point", tier.seeds],
                ["campaign", report.campaign],
                ["distinct runs in grid", report.total_specs],
                ["git", report.provenance.git or "-"],
                ["python", report.provenance.python],
                ["platform", report.provenance.platform],
                ["repro version", report.provenance.repro_version],
            ],
        ),
        "```",
        "",
        "## Verdict summary",
        "",
        f"**Overall: {report.verdict.symbol} {report.verdict.value.upper()}** — "
        f"{counts[Verdict.PASS]} pass, {counts[Verdict.WARN]} warn, "
        f"{counts[Verdict.FAIL]} fail, {counts[Verdict.SKIP]} skipped "
        f"(of {len(report.results)} paper targets).",
        "",
    ]
    if tier.name != "full":
        head.append(
            f"Tolerance bands are authored against the paper's full-scale "
            f"setup; the `{tier.name}` tier shrinks inputs to "
            f"{tier.app_scale}x and uses {tier.seeds} seed(s), so warn/fail "
            "verdicts here bound fidelity from below — rerun with `--scale "
            "full` for the definitive grading.",
        )
        head.append("")
    head.append("## Per-figure verdicts")
    head.append("")
    body = [section for _, section in figure_sections(report)]
    tail = [
        "",
        "## Reproducing this report",
        "",
        "```sh",
        f"python -m repro paper --scale {tier.name}",
        "```",
        "",
        "The pipeline records its grid as a resumable store campaign: an "
        "interrupted run (Ctrl-C, SIGKILL) resumes from the store with "
        "zero re-executed runs, and re-running a completed tier is pure "
        "store hits.  See EXPERIMENTS.md for the tier table and "
        "`reproduction.json` for this report in machine-readable form.",
        "",
    ]
    return "\n".join(head + ["\n\n".join(body)] + tail)


def write_bundle(run: PaperRun, out_dir: str | Path = ".") -> list[Path]:
    """Write the artifact bundle under *out_dir*; returns written paths.

    Layout: ``REPRODUCTION.md`` and ``reproduction.json`` at the bundle
    root, per-figure ``<figure>.json``/``<figure>.txt`` under
    ``reproduction_data/``.
    """
    out = Path(out_dir)
    data_dir = out / DATA_DIR
    data_dir.mkdir(parents=True, exist_ok=True)
    report = run.report
    paths = []

    md = out / "REPRODUCTION.md"
    md.write_text(render_markdown(report) + "\n", encoding="utf-8")
    paths.append(md)

    js = out / "reproduction.json"
    js.write_text(report.to_json() + "\n", encoding="utf-8")
    paths.append(js)

    for name, section in figure_sections(report):
        results = [r for r in report.results if r.target.figure == name]
        fig_json = data_dir / f"{name}.json"
        fig_json.write_text(
            json.dumps(
                {
                    "schema_version": REPRODUCTION_SCHEMA_VERSION,
                    "kind": "reproduction_figure",
                    "figure": name,
                    "tier": report.tier.name,
                    "targets": [r.to_dict() for r in results],
                },
                indent=2,
            )
            + "\n",
            encoding="utf-8",
        )
        paths.append(fig_json)
        fig_txt = data_dir / f"{name}.txt"
        fig_txt.write_text(section + "\n", encoding="utf-8")
        paths.append(fig_txt)

    run.paths = paths
    return paths


__all__ = [
    "DATA_DIR",
    "Execution",
    "PaperRun",
    "Provenance",
    "REPRODUCTION_SCHEMA_VERSION",
    "ReproductionReport",
    "figure_sections",
    "render_markdown",
    "run_paper",
    "verdict_table",
    "write_bundle",
]
