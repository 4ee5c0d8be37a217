"""Learning results of short runs against the committed fixtures, one per
dtype.

The tolerance lets rounding noise pass (a different BLAS thread count or
kernel, or a reordered sum) and fails any change in behaviour.
tests/trajectories.py describes the runs, sizes each dtype's tolerance and
regenerates the fixtures.
"""

import json

import numpy as np
import pytest

from trajectories import FIXTURES, record, runs

PINNED = {dtype: json.loads(fixture.read_text()) for dtype, (fixture, _) in FIXTURES.items()}
RUNS = runs()


def _assert_close(actual, expected, where: str, rtol: float) -> None:
    if isinstance(expected, dict):
        assert actual.keys() == expected.keys(), where
        for key in expected:
            _assert_close(actual[key], expected[key], f"{where}.{key}", rtol)
    elif isinstance(expected, list):
        assert len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_close(a, e, f"{where}[{i}]", rtol)
    elif expected is None:
        assert actual is None, where
    else:
        np.testing.assert_allclose(actual, expected, rtol=rtol, atol=1e-12, err_msg=where)


def test_fixture_covers_the_runs():
    for pinned in PINNED.values():
        assert sorted(pinned) == sorted(RUNS)


def _check(name: str, dtype) -> None:
    got = record(RUNS[name])
    pinned = PINNED[dtype][name]
    # A changed run definition needs a regenerated fixture, not a tolerance.
    assert got.pop("config") == pinned["config"]
    expected = {key: value for key, value in pinned.items() if key != "config"}
    _assert_close(got, expected, name, FIXTURES[dtype][1])


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("name", sorted(RUNS))
def test_trajectory_matches_fixture(name):
    _check(name, np.float64)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_float32_trajectory_matches_fixture(name):
    _check(name, np.float32)
