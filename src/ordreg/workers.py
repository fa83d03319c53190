"""Whole tasks in forked worker processes, handed back in task order.

:func:`in_order` runs ``fn(0) .. fn(n - 1)`` in this process and in forked
children, and yields the results in index order, each as soon as it is in.
While the next result is not in yet, this process computes a task itself, so
it handles one result while the children compute the next ones.

- A pipe holds one token per task index, written before the fork. Every
  process reads the next token when it is free, so tasks go out in index
  order. This process takes task 0 before it forks.
- A child sends each task's start, then its result or the exception it
  raised, pickled over its own pipe. One thread per child drains that pipe as
  the bytes come, so a child never blocks while this process computes, and
  reaps the child when the pipe closes. A child that dies fails its task.
- The first failed task raises its exception in its turn; no later result is
  yielded. Leaving the generator in any way kills and reaps every child.

``cli`` imports this module only when it forks.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import threading
from typing import Callable, Iterator, Sequence, TypeVar

T = TypeVar("T")

_TOKEN = 2  # bytes per task index in the token pipe
# every token is written before any is read, and a Linux pipe holds at least
# one 4 KiB page; a longer task list runs in this process alone
MAX_TASKS = 4096 // _TOKEN


def in_order(fn: Callable[[int], T], names: Sequence[str], children: int) -> Iterator[T]:
    """``fn(i)`` for each i in ``range(len(names))``, in order; ``names`` label the tasks
    in the error of a child that dies."""
    n = len(names)
    if n > MAX_TASKS:
        yield from map(fn, range(n))
        return
    tokens, write_end = os.pipe()
    try:
        os.write(write_end, b"".join(i.to_bytes(_TOKEN, "little") for i in range(n)))
    finally:
        os.close(write_end)
    pool = _Children(names)
    try:
        mine = _take(tokens)
        for stream in (sys.stdout, sys.stderr):
            stream.flush()  # so that no child holds a copy of buffered output
        for _ in range(children):
            if not pool.fork(fn, tokens):
                break  # fewer processes give the same results
        pool.watch()
        for i in range(n):
            while not pool.has(i):
                if mine is not None and mine < pool.first_failure:
                    pool.put(mine, _attempt(fn, mine))
                    mine = _take(tokens)
                else:
                    pool.wait(i)
            ok, value = pool.outcome(i)
            if not ok:
                raise value
            yield value
    finally:
        pool.stop()
        os.close(tokens)


def _take(tokens: int):
    token = os.read(tokens, _TOKEN)
    return int.from_bytes(token, "little") if token else None


def _attempt(fn: Callable[[int], T], i: int) -> tuple[bool, object]:
    try:
        return True, fn(i)
    except Exception as err:
        return False, err


def _portable(err: Exception) -> Exception:
    """``err`` if it survives a pickle round trip, else a RuntimeError with its text."""
    try:
        pickle.loads(pickle.dumps(err))
        return err
    except Exception:
        return RuntimeError(f"{type(err).__name__}: {err}")


def _serve(fn: Callable[[int], object], tokens: int, fd: int) -> None:
    """A child's whole life: run tasks until the tokens run out, then exit without unwinding."""
    code = 1
    try:
        pipe = os.fdopen(fd, "wb")

        def send(message) -> None:
            body = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
            pipe.write(len(body).to_bytes(8, "little") + body)
            pipe.flush()

        while (j := _take(tokens)) is not None:
            send((j, None, None))
            ok, value = _attempt(fn, j)
            send((j, ok, value if ok else _portable(value)))
        code = 0
    finally:
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except Exception:
                pass
        os._exit(code)


class _Children:
    """The forked children, their pipes, and every task outcome in by now."""

    def __init__(self, names: Sequence[str]) -> None:
        self.names = names
        self.cond = threading.Condition()
        self.outcomes: dict[int, tuple[bool, object]] = {}
        self.started: dict[int, int] = {}  # task -> pid of the child running it
        self.first_failure = len(names)
        self.pipes: list[tuple[int, int]] = []  # (pid, read end)
        self.running: set[int] = set()  # pids not yet reaped
        self.threads: list[threading.Thread] = []

    def fork(self, fn: Callable[[int], object], tokens: int) -> bool:
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_end)
            os.close(write_end)
            return False
        if pid == 0:
            os.close(read_end)
            _serve(fn, tokens, write_end)
        os.close(write_end)
        self.running.add(pid)
        self.pipes.append((pid, read_end))
        return True

    def watch(self) -> None:
        """Start draining every child's pipe; threads start only once every fork is done."""
        for pid, fd in self.pipes:
            thread = threading.Thread(target=self._drain, args=(pid, fd), daemon=True)
            thread.start()
            self.threads.append(thread)

    def has(self, i: int) -> bool:
        with self.cond:
            return i in self.outcomes

    def outcome(self, i: int) -> tuple[bool, object]:
        """Task i's outcome, handed over once: the entry stays, without the value."""
        with self.cond:
            ok, value = self.outcomes[i]
            self.outcomes[i] = ok, None
            return ok, value

    def put(self, i: int, outcome: tuple[bool, object]) -> None:
        with self.cond:
            self._put(i, outcome)

    def _put(self, i: int, outcome: tuple[bool, object]) -> None:
        self.outcomes[i] = outcome
        if not outcome[0]:
            self.first_failure = min(self.first_failure, i)
        self.cond.notify_all()

    def wait(self, i: int) -> None:
        """Block until task i, which a child took, is in; fail it once no child is left."""
        with self.cond:
            while i not in self.outcomes:
                if not self.running:
                    self._put(i, (False, RuntimeError(
                        f"a worker process exited before it ran {self.names[i]}")))
                else:
                    self.cond.wait()

    def _drain(self, pid: int, fd: int) -> None:
        try:
            with os.fdopen(fd, "rb") as pipe:
                while len(head := pipe.read(8)) == 8:
                    size = int.from_bytes(head, "little")
                    body = pipe.read(size)
                    if len(body) < size:
                        break  # the child died while sending
                    j, ok, value = pickle.loads(body)
                    with self.cond:
                        if ok is None:
                            self.started[j] = pid
                        else:
                            self._put(j, (ok, value))
        except Exception:  # a message that does not load: stop the child, fail its task
            os.kill(pid, signal.SIGKILL)
        with self.cond:  # the pipe closes when the child exits
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            self.running.discard(pid)
            how = f"exited with status {code}" if code >= 0 else f"was killed by signal {-code}"
            for j, owner in self.started.items():
                if owner == pid and j not in self.outcomes:
                    self._put(j, (False, RuntimeError(
                        f"the worker process running {self.names[j]} {how}")))
            self.cond.notify_all()

    def stop(self) -> None:
        """Kill the children still running, then reap every child."""
        with self.cond:
            for pid in self.running:
                os.kill(pid, signal.SIGKILL)
        for thread in self.threads:
            thread.join()
        for pid, fd in self.pipes[len(self.threads):]:  # forked, never watched
            os.close(fd)
            os.waitpid(pid, 0)
