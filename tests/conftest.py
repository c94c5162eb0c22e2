"""Per-test time limit, so a test that runs away fails instead of hanging."""

import signal

import pytest

#: seconds; the slowest test, the `walls --degree 200` digest, takes 1.6-2.3 s
#: on a 2-vCPU VM (13 runs)
TIME_LIMIT = 30


def _fail(signum, frame):
    # pytest.fail, not TimeoutError: that is an OSError, which cli.run maps to
    # exit 2, so a hung "rejected up front" case would pass
    pytest.fail(f"test ran longer than {TIME_LIMIT} s", pytrace=False)


@pytest.fixture(autouse=True)
def _time_limit():
    previous = signal.signal(signal.SIGALRM, _fail)
    signal.alarm(TIME_LIMIT)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
