import os
import signal
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# every property test draws the same examples on every run
settings.register_profile("lastfall", derandomize=True, deadline=None)
settings.load_profile("lastfall")

from lastfall import make_field


@contextmanager
def deadline(seconds):
    """Fail the running test with an AssertionError once the block has run
    for `seconds` of wall time, so that a loop that never ends fails the
    test instead of hanging the suite.  It arms a SIGALRM timer, so it works
    on the main thread only."""
    if threading.current_thread() is not threading.main_thread():
        raise RuntimeError("deadline() needs the main thread")
    name = os.environ.get("PYTEST_CURRENT_TEST", "the test").split(" ")[0]

    def expire(signum, frame):
        raise AssertionError(f"{name} ran past its deadline of {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def gf2():
    return make_field(2, 1, 1)


@pytest.fixture(scope="session")
def gf4():
    return make_field(2, 1, 2)


@pytest.fixture(scope="session")
def gf8():
    return make_field(2, 1, 3)


@pytest.fixture(scope="session")
def gf9():
    return make_field(3, 1, 2)


@pytest.fixture(scope="session")
def gf16():
    return make_field(2, 1, 4)


@pytest.fixture(scope="session")
def gf64_tower():
    # q = 4, n = 3: exercises a genuine three-level tower
    return make_field(2, 2, 3)
