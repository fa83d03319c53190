"""Prints one PASS/FAIL line per shipping criterion after the run, makes
every Hypothesis test draw the same examples on every run, and fails a test
that leaves a child process behind."""

import os

import pytest
from hypothesis import settings

settings.register_profile("ordreg", derandomize=True, database=None)
settings.load_profile("ordreg")

_RESULTS: dict[str, str] = {}


@pytest.fixture(autouse=True)
def no_child_process_left():
    """A child of this process still running, or exited but not reaped, fails the test."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no child at all
    pytest.fail(f"the test left child process {pid} unreaped" if pid
                else "the test left a child process running")


def _criterion(nodeid: str):
    test = nodeid.split("::")[-1].split("[")[0]
    if test.startswith("test_criterion_"):
        return test[len("test_") :]
    return None


def pytest_runtest_logreport(report):
    name = _criterion(report.nodeid)
    if name is None:
        return
    if report.when == "call":
        if report.skipped:
            _RESULTS[name] = "SKIP"
        else:
            _RESULTS[name] = "PASS" if report.passed else "FAIL"
    elif report.failed:  # setup or teardown blew up
        _RESULTS[name] = "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _RESULTS:
        return
    terminalreporter.write_sep("=", "shipping criteria")
    for name in sorted(_RESULTS):
        label = name.replace("criterion_", "criterion ").replace("_", " ")
        terminalreporter.write_line(f"{label}: {_RESULTS[name]}")
