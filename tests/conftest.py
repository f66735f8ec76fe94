import numpy as np
import pytest

# one "[criterion NN] PASS/FAIL" line per acceptance check, echoed after the
# run so the verdicts survive output capture
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)
