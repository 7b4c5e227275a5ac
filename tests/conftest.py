"""Shared test fixtures."""

import contextlib
import signal

import pytest


@contextlib.contextmanager
def _deadline(seconds: float):
    def expire(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def deadline():
    """``with deadline(5.0): ...`` turns a hang in the block into a TimeoutError."""
    return _deadline
