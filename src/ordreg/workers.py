"""Whole tasks in forked worker processes, handed back in task order.

:func:`in_order` runs ``fn(0) .. fn(n - 1)`` in this process and in forked
children, and yields the results in index order, each as soon as it is in.
No process starts a thread of its own.

- A pipe holds one token per task index, written before the fork, so the
  tasks must fit one pipe buffer (2,048 in Linux's smallest, 4 KiB; ``cv``
  hands over at most nine). Every process reads the next token only when it
  is free to start that task, so tasks go out in index order and none waits
  behind a busy process. This process takes task 0 before it forks.
- A child pickles each task's result, or the exception it raised, to a file
  in a private temporary directory. Over its own pipe it sends 3-byte
  ``start j`` and ``done j`` messages; a write that short is atomic and fits
  the pipe, so a child never waits on this process.
- This process computes a task of its own whenever ``select`` finds no
  message ready, and blocks in ``select`` once it has none left. It loads a
  result at its ``done``. A child that dies fails the task it started and
  did not finish.
- The first failed task raises its exception in its turn; no later result is
  yielded, though later tasks may have run by then. Leaving the generator in
  any way kills and reaps every child, and then removes the directory.

``cli`` imports this module only when it forks, so no other command pays for
the import.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import sys
import tempfile
from typing import Callable, Iterator, Sequence, TypeVar

T = TypeVar("T")

_TOKEN = 2  # bytes per task index in the token pipe and in a child's messages


def in_order(fn: Callable[[int], T], names: Sequence[str], children: int) -> Iterator[T]:
    """``fn(i)`` for each i in ``range(len(names))``, in order; ``names`` label the tasks
    in the error of a child that dies."""
    n = len(names)
    with tempfile.TemporaryDirectory(prefix="ordreg-") as folder:
        tokens, write_end = os.pipe()
        try:
            os.write(write_end, b"".join(i.to_bytes(_TOKEN, "little") for i in range(n)))
        finally:
            os.close(write_end)
        pipes: dict[int, int] = {}  # read end -> pid, for each child not yet reaped
        started: dict[int, int] = {}  # task -> pid of the child running it, until it is done
        done: dict[int, tuple[bool, object]] = {}  # task -> (ok, result or exception)
        try:
            mine = _take(tokens)  # task 0 runs here; any later task is taken as it starts
            for stream in (sys.stdout, sys.stderr):
                stream.flush()  # so that no child holds a copy of buffered output
            for _ in range(children):
                read_end, write_end = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(read_end)
                    os.close(write_end)
                    break  # fewer processes give the same results
                if pid == 0:
                    os.close(read_end)
                    _serve(fn, tokens, write_end, folder)
                os.close(write_end)
                pipes[read_end] = pid
            free = True  # until this process finds no token left
            for i in range(n):
                while i not in done:
                    if not free and not pipes:
                        done[i] = False, RuntimeError(
                            f"a worker process exited before it ran {names[i]}")
                        break
                    ready = select.select(list(pipes), [], [], 0 if free else None)[0]
                    if not ready:
                        task = _take(tokens) if mine is None else mine
                        mine, free = None, task is not None
                        if free:
                            done[task] = _attempt(fn, task)
                    for fd in ready:
                        message = os.read(fd, 1 + _TOKEN)
                        if not message:  # the pipe closes when the child exits
                            pid = pipes.pop(fd)
                            os.close(fd)
                            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                            how = (f"exited with status {code}" if code >= 0
                                   else f"was killed by signal {-code}")
                            for j in (j for j, owner in started.items() if owner == pid):
                                done[j] = False, RuntimeError(
                                    f"the worker process running {names[j]} {how}")
                            continue
                        j = int.from_bytes(message[1:], "little")
                        if message[:1] == b"s":  # start j; else done j
                            started[j] = pipes[fd]
                        else:
                            del started[j]
                            with open(os.path.join(folder, str(j)), "rb") as result:
                                done[j] = pickle.load(result)
                ok, value = done.pop(i)
                if not ok:
                    raise value
                yield value
        finally:
            for pid in pipes.values():
                os.kill(pid, signal.SIGKILL)
            for fd, pid in pipes.items():
                os.waitpid(pid, 0)
                os.close(fd)
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


def _serve(fn: Callable[[int], object], tokens: int, fd: int, folder: str) -> None:
    """A child's whole life: run tasks until the tokens run out, then exit without unwinding."""
    code = 1
    try:
        while (j := _take(tokens)) is not None:
            token = j.to_bytes(_TOKEN, "little")
            os.write(fd, b"s" + token)
            ok, value = _attempt(fn, j)
            with open(os.path.join(folder, str(j)), "wb") as result:
                pickle.dump((ok, value if ok else _portable(value)), result,
                            pickle.HIGHEST_PROTOCOL)
            os.write(fd, b"d" + token)
        code = 0
    finally:
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except Exception:
                pass
        os._exit(code)
