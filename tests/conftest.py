"""A time limit for every test, so a loop that never ends fails its test
instead of holding the run until the CI job's own timeout."""

import signal

import pytest

# About 18 times the slowest test (6.7 s for the insertion property test on
# a 2-vCPU machine), to leave room for slower runners.
LIMIT_S = 120


class TimeLimitExceeded(BaseException):
    """Not an Exception, so neither the code under test nor hypothesis's
    shrinking (which would run the hanging example again) catches it."""


@pytest.fixture(autouse=True)
def _time_limit(request):
    if not hasattr(signal, "SIGALRM"):  # no alarms on this platform
        yield
        return

    def expire(_signum, _frame):
        raise TimeLimitExceeded(f"{request.node.nodeid} ran past {LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
