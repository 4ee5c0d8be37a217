"""Learning results of short runs against the committed trajectories.json.

The tolerance lets rounding noise pass (a different BLAS thread count, or a
reordered sum) and fails any change in behaviour. tests/trajectories.py
describes the runs and regenerates the fixture.
"""

import json

import numpy as np
import pytest

from trajectories import FIXTURE, record, runs

PINNED = json.loads(FIXTURE.read_text())
RUNS = runs()


def _assert_close(actual, expected, where: str) -> None:
    if isinstance(expected, dict):
        assert actual.keys() == expected.keys(), where
        for key in expected:
            _assert_close(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_close(a, e, f"{where}[{i}]")
    elif expected is None:
        assert actual is None, where
    else:
        np.testing.assert_allclose(actual, expected, rtol=1e-9, atol=1e-12, err_msg=where)


def test_fixture_covers_the_runs():
    assert sorted(PINNED) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_trajectory_matches_fixture(name):
    got = record(RUNS[name])
    # A changed run definition needs a regenerated fixture, not a tolerance.
    assert got.pop("config") == PINNED[name]["config"]
    expected = {key: value for key, value in PINNED[name].items() if key != "config"}
    _assert_close(got, expected, name)
