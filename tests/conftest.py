"""Suite-wide fixtures."""

import pytest


@pytest.fixture(autouse=True)
def _isolated_result_locations(tmp_path, monkeypatch):
    """Point the default result store into the test's own tmp_path.  The
    default store persists between runs, so a test that expects an
    execution would otherwise find a store hit left behind in the checkout
    by an earlier run of the suite."""
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "default-store.sqlite"))
