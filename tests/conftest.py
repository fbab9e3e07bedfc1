import sys

from hypothesis import settings

# one deterministic configuration: the same examples on every run and every
# checkout, no example database to replay, and no per-example deadline
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-gate result lines past output capture."""
    mod = (sys.modules.get("test_acceptance")
           or sys.modules.get("tests.test_acceptance"))
    lines = getattr(mod, "REPORT_LINES", []) if mod else []
    if lines:
        terminalreporter.section("acceptance gate")
        for line in lines:
            terminalreporter.write_line(line)
