import os
import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """Fail a test after which a thread runs that did not run before it.

    Every pool tailcast starts (run_eval's replicate pool, the Gini worker
    that sorts the second margin) is joined before the call that started it
    returns or raises; a thread left running here names the leak.
    """
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads still running after the test: {', '.join(left)}")


@pytest.fixture(autouse=True)
def no_child_process_outlives_the_test():
    """Fail a test after which this process has a child, running or not reaped.

    ``run_fit`` reaps the child it forks for a split online fit before it
    returns or raises, and every test that starts a subprocess waits for it;
    so after a test, ``waitpid`` finds no child at all.
    """
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "still running" if pid == 0 else f"pid {pid}, left unreaped (wait status {status})"
    pytest.fail(f"a child process outlived the test: {state}")
