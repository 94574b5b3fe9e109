"""Fixtures shared by every test module."""

import glob
import os
import signal
import time

import pytest


def _live_children() -> set[int]:
    """Process ids of this process's children that are still running:
    the ``children`` lists of all its threads, less the zombies."""
    pids = set()
    for path in glob.glob("/proc/self/task/*/children"):
        try:
            with open(path, encoding="ascii") as fh:
                pids.update(int(pid) for pid in fh.read().split())
        except OSError:  # the thread ended while it was read
            continue
    live = set()
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as fh:
                # the state follows the parenthesized command name
                if fh.read().rpartition(")")[2].split()[0] != "Z":
                    live.add(pid)
        except OSError:  # it ended and was reaped meanwhile
            continue
    return live


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running, such as a pool
    worker that was never joined, and kill what it left."""
    before = _live_children()
    yield
    deadline = time.monotonic() + 2.0
    left = _live_children() - before
    while left and time.monotonic() < deadline:  # let exiting children go
        time.sleep(0.02)
        left = _live_children() - before
    if left:
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        pytest.fail(f"the test left child processes running: {sorted(left)}")
