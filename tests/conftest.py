"""Shared fixtures: calibrated parameter sets reused across the suite, and
the environment of a subprocess that runs this checkout's package."""

import os
from pathlib import Path

import pytest

from bigjump.model import ModelParams, calibrate

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def src_env() -> dict:
    """A copy of ``os.environ`` with this checkout's ``src`` first on
    PYTHONPATH, so a child interpreter imports the package under test."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


@pytest.fixture(scope="session")
def params() -> ModelParams:
    """Default calibration: b = 0.5, epsilon = 1."""
    return calibrate(0.5, 1.0, tolerance=1e-10)


@pytest.fixture(scope="session")
def params_b02() -> ModelParams:
    return calibrate(0.2, 1.0, tolerance=1e-10)


@pytest.fixture(scope="session")
def params_b08() -> ModelParams:
    return calibrate(0.8, 1.0, tolerance=1e-10)
