"""Suite-wide fixtures."""

from pathlib import Path

import pytest


@pytest.fixture(autouse=True)
def _isolated_result_locations(tmp_path, monkeypatch):
    """Point the default result store and the legacy cache directory into
    the test's own tmp_path.  The default store persists between runs, so
    a test that expects an execution would otherwise find a store hit left
    behind in the checkout by an earlier run of the suite."""
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "default-store.sqlite"))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default-cache"))


@pytest.fixture
def legacy_cache() -> Path:
    """A repro 1.x flat result cache (``<key[:2]>/<key>.json`` files): the
    four entries ``repro sweep fft --mtbe 64k --seeds 4 --scale 0.05``
    wrote to ``.repro_cache/``.  Read-only: copy it before modifying."""
    return Path(__file__).parent / "fixtures" / "legacy_cache"
