import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

import signal
from contextlib import contextmanager

import pytest


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
