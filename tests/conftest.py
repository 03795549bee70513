import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """Fail a test after which a thread runs that did not run before it.

    Every pool tailcast starts (run_eval's replicate pool, the Gini worker
    that sorts the second margin, a batch Q4 solve's rank worker) is joined
    before the call that started it returns or raises; a thread left
    running here names the leak.
    """
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads still running after the test: {', '.join(left)}")
