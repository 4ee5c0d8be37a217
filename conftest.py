"""Test-session settings shared by tests/ and bench/tests/."""

import numpy as np
import pytest


@pytest.fixture(scope="session", autouse=True)
def session_cache_home(tmp_path_factory):
    """Keep generated splits in one session directory, not the user's cache;
    subprocesses the tests start inherit the setting."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield


@pytest.fixture
def float64(monkeypatch):
    """Compute in float64 in this process: the dtype of the pinned trajectories
    and of the checks whose gaps or triggers are float64 properties."""
    monkeypatch.setattr("fedbench.model.DTYPE", np.float64)
