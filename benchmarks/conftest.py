"""Shared fixtures for the benchmark harness.

The pytest-based ``bench_*`` modules regenerate tables and figures of the
paper at CPU-friendly sizes, print what the paper reports, and write CSVs
under ``artifacts/results/``.

Trained models come from the weight cache (``repro.experiments.common``);
the first run trains them (~15 minutes for all nine zoo models), later
runs load instantly.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.data import Dataset
from repro.experiments.common import (get_imagenet, get_mnist, trained_lenet)

RESULTS_DIR = Path(__file__).resolve().parent.parent / "artifacts" / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def lenet():
    """The trained binary LeNet of the Fig. 4 experiments."""
    return trained_lenet()


@pytest.fixture(scope="session")
def mnist_test() -> Dataset:
    _, test = get_mnist()
    return test


@pytest.fixture(scope="session")
def imagenet_test() -> Dataset:
    _, test = get_imagenet()
    return test

