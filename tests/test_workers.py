"""Forked workers hand results back in task order, stop at the first failure and
leave no process behind (the conftest fixture checks the last)."""

import os
import select
import signal
import sys
import tempfile
import time
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


def _open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []


@contextmanager
def task_one_in_a_child(then):
    """An ``fn`` whose task 0, which this process takes before it forks, blocks until
    task 1 has begun; task 1 therefore runs in a child, which then calls ``then()``.
    Later tasks return their index."""
    read_end, write_end = os.pipe()

    def fn(i):
        if i == 0:
            assert os.read(read_end, 1) == b"1"
            return "zero"
        if i > 1:
            return i
        os.write(write_end, b"1")
        return then()

    try:
        fds = _open_fds()
        yield fn
        assert _open_fds() == fds  # in_order closed every pipe it opened
    finally:
        os.close(read_end)
        os.close(write_end)


def test_a_process_takes_a_task_only_when_it_starts_it():
    """Task 0, which this process takes before it forks, ends while the child is in
    task 1. This process must not take task 2 then: the caller holds result 0, so
    task 2 runs only if the child, once free, can take it."""
    begun_r, begun_w = os.pipe()  # task 1 has begun
    held_r, held_w = os.pipe()  # the caller holds result 0
    ran_r, ran_w = os.pipe()  # task 2 has begun

    def fn(i):
        if i == 0:
            assert os.read(begun_r, 1) == b"1"
            return "zero"
        if i == 1:
            os.write(begun_w, b"1")
            assert os.read(held_r, 1) == b"0"
            return "one"
        os.write(ran_w, b"2")
        return "two"

    try:
        fds = _open_fds()
        with time_limit(60):
            results = in_order(fn, ["task 0", "task 1", "task 2"], children=1)
            assert next(results) == "zero"
            os.write(held_w, b"0")
            ran = select.select([ran_r], [], [], 10)[0]
            rest = list(results)
        assert _open_fds() == fds
    finally:
        for fd in (begun_r, begun_w, held_r, held_w, ran_r, ran_w):
            os.close(fd)
    assert ran == [ran_r], "task 2 did not run within 10 s of result 0"
    assert rest == ["one", "two"]


def test_a_child_killed_by_a_signal_fails_its_task_after_the_earlier_results():
    got = []
    with time_limit(60), task_one_in_a_child(lambda: os.kill(os.getpid(), signal.SIGKILL)) as fn:
        with pytest.raises(RuntimeError) as err:
            for value in in_order(fn, ["task 0", "task 1", "task 2"], children=1):
                got.append(value)
    assert got == ["zero"]
    assert str(err.value) == "the worker process running task 1 was killed by signal 9"


def test_an_exception_that_does_not_pickle_arrives_as_a_runtime_error_with_its_text():
    class Unpicklable(Exception):  # a local class pickles by a name nobody can import
        pass

    def fail():
        raise Unpicklable("the text")

    got = []
    with time_limit(60), task_one_in_a_child(fail) as fn:
        with pytest.raises(RuntimeError) as err:
            for value in in_order(fn, ["task 0", "task 1"], children=1):
                got.append(value)
    assert got == ["zero"]
    assert type(err.value) is RuntimeError and str(err.value) == "Unpicklable: the text"


def test_closing_after_the_first_result_leaves_no_child_pipe_or_folder(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with time_limit(60), task_one_in_a_child(lambda: time.sleep(60)) as fn:
        results = in_order(fn, ["task 0", "task 1"], children=1)
        assert next(results) == "zero"
        assert len(list(tmp_path.iterdir())) == 1  # the folder of results, while it runs
        results.close()
        assert list(tmp_path.iterdir()) == []
