"""Literal content keys and campaign ids.

Every stored run, every campaign id and every ``--trace-dir`` file name is
derived from :meth:`RunSpec.content_key`.  These pins fail as soon as a
change to the spec, its serialization or the key payload moves a key, so a
store written by an earlier release keeps resuming with zero executions.
"""

import pytest

from repro.experiments.fidelity import collect_targets, resolve_tier
from repro.experiments.paper import _dedup_specs
from repro.experiments.parallel import RunSpec
from repro.experiments.store import derive_campaign_id
from repro.machine.protection import ProtectionLevel

KEY_PINS = [
    pytest.param(
        RunSpec(app="fft", mtbe=100_000.0, seed=3),
        0.1,
        "ef71eb43741d8a60057151bf5989ef768b14a63dd375c158659481b0b140a552",
        id="default",
    ),
    pytest.param(
        RunSpec(app="mp3", mtbe=50_000.0, seed=1, fault_model="burst:p_cluster=0.7"),
        0.2,
        "c5aee6058031e69d988616c9f06dfcd874b629adee6a9e80f01df8a4be693f32",
        id="fault-model",
    ),
    pytest.param(
        RunSpec(
            app="jpeg",
            protection=ProtectionLevel.PPU_ONLY,
            mtbe=64_000.0,
            seed=0,
            p_masked=0.0,
        ),
        0.25,
        "5c41c736541a7710a588aae90cb1275babd387bbbb8c0f10a87017c01c2e82ff",
        id="p-override",
    ),
    pytest.param(
        RunSpec(
            app="channelvocoder",
            mtbe=1_024_000.0,
            seed=2,
            frame_scale=4,
            workset_units=64,
        ),
        0.05,
        "7eef773b479eef7d57112ea3737831d075ae7c54b2d160a3e5a364b792f5bf42",
        id="frame-scale-workset",
    ),
    pytest.param(
        RunSpec(app="fft", protection=ProtectionLevel.ERROR_FREE),
        0.1,
        "d2cc55a697964af10e5ad4eec0126ced90e8aa136941faf23770cbc910bbc98f",
        id="error-free",
    ),
]


@pytest.mark.parametrize("spec, scale, key", KEY_PINS)
def test_content_key_is_pinned(spec, scale, key):
    assert spec.content_key(scale) == key


@pytest.mark.parametrize(
    "tier, campaign, runs",
    [
        ("smoke", "c-49a46a33856a", 30),
        ("reduced", "c-66b348ecef3f", 66),
        ("full", "c-eb5cfdf30c36", 102),
    ],
)
def test_paper_campaign_id_is_pinned(tier, campaign, runs):
    tier = resolve_tier(tier)
    specs, _ = _dedup_specs(collect_targets(), tier)
    assert len(specs) == runs
    assert derive_campaign_id(specs, tier.app_scale) == campaign
