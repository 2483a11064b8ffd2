import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    # thread_map and the integrator's noise thread both join before they return
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert not left, f"threads still alive after the test: {left}"
