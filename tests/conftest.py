"""Shared fixtures: paranoid rotations and seeded RNGs for every test."""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro.core.rotations as rotations_module


def pytest_configure(config):
    """Register the repository's own marks (no pytest config file holds them)."""
    config.addinivalue_line(
        "markers",
        "slow: a long-running test (paper-scale generation, exhaustive"
        " builder grids); runs in the tier-1 suite like any other",
    )


@pytest.fixture(scope="session", autouse=True)
def isolated_results_dir(tmp_path_factory):
    """Point result files and the result cache at a session temp dir.

    Result paths anchor to the repository root (repro.results.paths), so
    without this a test run would write sink/cache files into the real
    ``benchmarks/results/`` — and, when ``REPRO_RESULT_CACHE`` is on,
    could serve cells from a stale on-disk cache across code changes.
    An explicit ``REPRO_RESULTS_DIR`` from the caller wins (CI sets one).
    """
    if not os.environ.get("REPRO_RESULTS_DIR"):
        os.environ["REPRO_RESULTS_DIR"] = str(
            tmp_path_factory.mktemp("repro-results")
        )
    yield


@pytest.fixture(autouse=True)
def paranoid_rotations():
    """Run every test with rotation-level invariant checking enabled."""
    old = rotations_module.PARANOID
    rotations_module.PARANOID = True
    yield
    rotations_module.PARANOID = old


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xC0FFEE)


def random_pair(rng: np.random.Generator, n: int) -> tuple[int, int]:
    u = int(rng.integers(1, n + 1))
    v = int(rng.integers(1, n))
    if v >= u:
        v += 1
    return u, v
