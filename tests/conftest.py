import sys

import pytest

from gwfloor.checks import run_suite


@pytest.fixture(scope="session")
def suite_all():
    """``run_suite("all")`` at the default budget 4, run once per session:
    the result of ``gwfloor verify --suite all``."""
    return run_suite("all")


@pytest.fixture(scope="session")
def suite_sweep():
    """``run_suite("sweep")`` at the default budget 4, run once per
    session: the result of ``gwfloor verify --suite sweep``."""
    return run_suite("sweep")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the per-criterion acceptance verdicts after the run.

    Passing tests have their stdout captured, so the ACCEPTANCE lines
    would otherwise only be visible under -s; the terminal summary is
    never captured.
    """
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "VERDICT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
