"""Shared fixtures for the test suite (numeric helpers live in gradcheck.py)."""

from __future__ import annotations

import faulthandler
import os

import numpy as np
import pytest

from gradcheck import assert_grad_close, numerical_gradient  # noqa: F401 (re-export)

#: per-test hang deadline (seconds).  The slowest test takes ~110 s when
#: it has to train a zoo model on a cold weight cache (~8 s warm); a
#: test still running after this long is stuck, so the process dumps
#: every thread's stack and exits instead of eating the CI job timeout.
HANG_DEADLINE_S = 600.0

_REAL_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # copied while output capture is suspended: a dump written to the
    # capture buffer would die unread with the exiting process
    config.stash[_REAL_STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_REAL_STDERR])


@pytest.fixture(autouse=True)
def _hang_guard(request):
    faulthandler.dump_traceback_later(
        HANG_DEADLINE_S, exit=True, file=request.config.stash[_REAL_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
