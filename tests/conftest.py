import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

import signal
from contextlib import contextmanager

import pytest
from hypothesis import settings

# Every run draws the same examples (seeded from each test's source), keeps
# no example database and sets no per-example time limit, so the suite cannot
# flake on draws or timing.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


@pytest.fixture()
def deadline():
    """``with deadline(seconds):`` fails the test with TimeoutError instead of
    letting a hang stall the suite."""

    @contextmanager
    def limit(seconds: float):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit
