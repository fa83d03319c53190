"""Forked workers hand results back in task order, stop at the first failure and
leave no process behind (the conftest fixture checks the last)."""

import os
import signal
import sys
from contextlib import contextmanager

import pytest

from ordreg.core import InputError
from ordreg.workers import in_order

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@contextmanager
def time_limit(seconds: int):
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_many_tasks_over_more_children_than_cores_come_back_in_order():
    names = [f"task {i}" for i in range(300)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with time_limit(60):
            got = list(in_order(lambda i: (i, "x" * (i * 1000)), names, children=4))
    finally:
        sys.setswitchinterval(interval)
    assert got == [(i, "x" * (i * 1000)) for i in range(300)]


def test_the_first_failed_task_raises_in_its_turn_and_nothing_after_it():
    def fn(i):
        if i in (5, 7):
            raise InputError(f"bad task {i}")
        return i

    got = []
    with time_limit(60), pytest.raises(InputError, match="bad task 5"):
        for value in in_order(fn, [f"task {i}" for i in range(12)], children=3):
            got.append(value)
    assert got == [0, 1, 2, 3, 4]
