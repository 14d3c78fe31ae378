"""Paper-shape claims checked over RunSpecs, outside the graded grid.

``repro paper`` grades every claim whose runs its grid already holds (each
figure module's ``paper_targets()``).  The claims here need runs the grid
does not hold — another MTBE, scale, frame size or app set — so each test
builds its own :class:`RunSpec` list and executes it through the parallel
engine, at the scale, MTBE, seeds and thresholds the claim was first
stated with.
"""

from dataclasses import fields

from repro.apps.registry import APP_ORDER
from repro.core.config import CommGuardConfig
from repro.core.guard import CommGuard
from repro.core.queue_manager import GuardedQueue, plan_geometry
from repro.core.stats import CommGuardStats
from repro.experiments.aggregate import summarize
from repro.experiments.parallel import ParallelRunner, RunSpec
from repro.machine.protection import ProtectionLevel
from repro.quality.metrics import QUALITY_CAP_DB

SCALE = 0.05
TINY_LADDER = (64_000, 1_024_000)

DSP_APPS = ("audiobeamformer", "channelvocoder", "complex-fir", "fft")


def run_specs(specs, scale):
    return ParallelRunner(scale=scale, jobs=2).run_specs(specs)


def mean_quality(records) -> float:
    return summarize([r.quality_db for r in records], cap=QUALITY_CAP_DB).mean


def overheads(apps, frame_scales, scale) -> dict[str, dict[int, float]]:
    """Error-free CommGuard cycle overhead per app and frame scale."""
    specs = [
        RunSpec(app=app, protection=ProtectionLevel.ERROR_FREE) for app in apps
    ]
    grid = [(app, fs) for app in apps for fs in frame_scales]
    specs += [
        RunSpec(
            app=app, protection=ProtectionLevel.COMMGUARD, mtbe=None, frame_scale=fs
        )
        for app, fs in grid
    ]
    records = run_specs(specs, scale)
    baselines = dict(zip(apps, (r.execution_time for r in records[: len(apps)])))
    result: dict[str, dict[int, float]] = {app: {} for app in apps}
    for (app, fs), record in zip(grid, records[len(apps) :]):
        result[app][fs] = (record.execution_time - baselines[app]) / baselines[app]
    return result


class TestFig03:
    def test_four_level_ordering_at_250k(self):
        """Error-free >= CommGuard, and CommGuard beats both error-prone
        baselines (jpeg at 1x, MTBE 250k, 3 seeds)."""
        levels = (
            ProtectionLevel.ERROR_FREE,
            ProtectionLevel.PPU_ONLY,
            ProtectionLevel.PPU_RELIABLE_QUEUE,
            ProtectionLevel.COMMGUARD,
        )
        grid = [
            (level, seed)
            for level in levels
            for seed in ((0,) if level is ProtectionLevel.ERROR_FREE else range(3))
        ]
        records = run_specs(
            [
                RunSpec(app="jpeg", protection=level, mtbe=250_000, seed=seed)
                for level, seed in grid
            ],
            scale=1.0,
        )
        by_level = {}
        for level in levels:
            qualities = [
                min(record.quality_db, QUALITY_CAP_DB)
                for (rec_level, _), record in zip(grid, records)
                if rec_level is level
            ]
            by_level[level] = sum(qualities) / len(qualities)
        guarded = by_level[ProtectionLevel.COMMGUARD]
        assert by_level[ProtectionLevel.ERROR_FREE] >= guarded
        assert guarded > by_level[ProtectionLevel.PPU_RELIABLE_QUEUE]
        assert guarded > by_level[ProtectionLevel.PPU_ONLY]


class TestFig07:
    def test_errors_injected_at_512k(self):
        (record,) = run_specs([RunSpec(app="jpeg", mtbe=512_000, seed=0)], 1.0)
        assert record.errors_injected > 0


class TestFig08:
    def test_ratios_bounded(self):
        records = run_specs(
            [
                RunSpec(app=app, mtbe=mtbe, seed=0)
                for app in ("fft", "jpeg")
                for mtbe in TINY_LADDER
            ],
            SCALE,
        )
        for record in records:
            assert 0.0 <= record.data_loss_ratio < 0.05  # paper: loss stays small

    def test_loss_bounded_and_falls_with_mtbe(self):
        """Every app loses under 5% at 64k..1024k (2 seeds, 0.25x), and
        loss shrinks (weakly) as errors get rarer."""
        ladder = (64_000, 256_000, 1_024_000)
        grid = [(app, mtbe) for app in APP_ORDER for mtbe in ladder]
        records = run_specs(
            [
                RunSpec(app=app, mtbe=mtbe, seed=seed)
                for app, mtbe in grid
                for seed in range(2)
            ],
            0.25,
        )
        loss = {
            point: sum(r.data_loss_ratio for r in records[2 * i : 2 * i + 2]) / 2
            for i, point in enumerate(grid)
        }
        for (app, mtbe), ratio in loss.items():
            assert 0.0 <= ratio < 0.05, (app, mtbe, ratio)
        for app in APP_ORDER:
            assert loss[app, ladder[-1]] <= loss[app, ladder[0]] + 1e-6, app


class TestFig10Fig11:
    def test_fig10_mp3_quality_rises_with_mtbe(self):
        """mp3 at 1x frames: 2048k is no worse than 128k (2 seeds, 1x)."""
        ladder = (128_000, 512_000, 2_048_000)
        records = run_specs(
            [
                RunSpec(app="mp3", mtbe=mtbe, seed=seed)
                for mtbe in ladder
                for seed in range(2)
            ],
            1.0,
        )
        means = [mean_quality(records[2 * i : 2 * i + 2]) for i in range(3)]
        assert means[0] <= means[-1] + 0.5

    def test_fig11_dsp_quality_rises_with_mtbe(self):
        """Each DSP app at 512k is no more than 1 dB below 64k, and above
        10 dB (2 seeds, 0.25x)."""
        ladder = (64_000, 512_000)
        records = run_specs(
            [
                RunSpec(app=app, mtbe=mtbe, seed=seed)
                for app in DSP_APPS
                for mtbe in ladder
                for seed in range(2)
            ],
            0.25,
        )
        for index, app in enumerate(DSP_APPS):
            low, high = (
                mean_quality(records[4 * index + 2 * j : 4 * index + 2 * j + 2])
                for j in range(2)
            )
            assert high >= low - 1.0, app
            assert high > 10.0, app


class TestOverheadFigures:
    def test_fig12_ratios_small_and_complete(self):
        apps = ("fft", "mp3")
        records = run_specs(
            [
                RunSpec(app=app, protection=ProtectionLevel.COMMGUARD, mtbe=None)
                for app in apps
            ],
            SCALE,
        )
        assert [r.app for r in records] == list(apps)
        for record in records:
            assert 0.0 <= record.header_load_ratio < 0.1
            assert 0.0 <= record.header_store_ratio < 0.1

    def test_fig13_overhead_positive_and_shrinks_with_frames(self):
        series = overheads(("audiobeamformer",), (1, 8), SCALE)["audiobeamformer"]
        assert series[1] > 0
        assert series[8] < series[1]  # larger frames -> lower overhead

    def test_fig13_8x_frames_cost_no_more_than_1x(self):
        for app, series in overheads(APP_ORDER, (1, 8), 0.25).items():
            assert series[8] <= series[1], app

    def test_fig14_header_bit_dominates_ecc_for_rate_heavy_apps(self):
        (record,) = run_specs(
            [RunSpec(app="jpeg", protection=ProtectionLevel.COMMGUARD, mtbe=None)],
            SCALE,
        )
        ratios = record.subop_ratios
        assert ratios["header_bit"] > ratios["ecc"]
        assert ratios["total"] >= ratios["header_bit"]
        assert ratios["total"] < 0.25


def _snapshot(stats: CommGuardStats) -> dict[str, int]:
    return {f.name: getattr(stats, f.name) for f in fields(stats)}


def _delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
    return {k: after[k] - before[k] for k in after if after[k] != before[k]}


def probe_event_costs() -> dict[str, dict[str, int]]:
    """Drive one queue through Table 2's interface events, recording the
    suboperation deltas each event incurred."""
    queue = GuardedQueue(0, plan_geometry(4, 4, 4, workset_units=4))
    producer = CommGuard(CommGuardConfig())
    consumer = CommGuard(CommGuardConfig())
    producer.attach_outgoing(queue)
    consumer.attach_incoming(queue)
    costs = {}

    def record(event, guard, action):
        before = _snapshot(guard.stats)
        action()
        costs[event] = _delta(before, _snapshot(guard.stats))

    def new_frame(guard):
        guard.on_new_frame_computation()
        guard.advance_header_insertions()

    record("new frame computation (producer)", producer, lambda: new_frame(producer))
    record("push (regular item)", producer, lambda: producer.push(0, 42))
    for word in (43, 44, 45):
        producer.push(0, word)
    new_frame(producer)  # publishes the frame for the consumer
    record("new frame computation (consumer)", consumer, lambda: new_frame(consumer))
    # Crosses the frame header, then returns item 42.
    record("pop (header + item)", consumer, lambda: consumer.pop(0))
    record("pop (regular item)", consumer, lambda: consumer.pop(0))
    return costs


class TestTables:
    def test_probe_event_costs(self):
        by_event = probe_event_costs()
        # Table 2: a regular push is just a QM-local push, no header work.
        assert by_event["push (regular item)"] == {"qm_push_local": 1}
        # A frame boundary prepares a header and computes its ECC.
        producer = by_event["new frame computation (producer)"]
        assert producer["prepare_header"] == 1
        assert producer["header_stores"] == 1
        # Crossing the frame header costs an ECC check + header-bit checks.
        pop = by_event["pop (header + item)"]
        assert pop["header_loads"] == 1
        assert pop["ecc_ops"] >= 1
        assert pop["is_header_checks"] == 2
