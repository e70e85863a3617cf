"""Shared pytest hooks: collect acceptance-criterion outcomes and print a
one-line PASS/FAIL verdict per criterion after the run; and the hypothesis
profiles that set the fuzz property's budget."""

import pytest
from hypothesis import settings

# The fuzz property (tests/test_fuzz_cli.py) takes its example budget from the
# loaded profile; every other property sets its own.  Tier-1 runs 60 examples,
# and CI's fuzz step a larger fixed budget: pytest --hypothesis-profile=fuzz.
settings.register_profile("tier1", max_examples=60)
settings.register_profile("fuzz", max_examples=8000)
settings.load_profile("tier1")

_RESULTS = {}
_DESCRIPTIONS = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(number, description): tag a test as one acceptance criterion",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    number, description = marker.args
    passed, notes = _RESULTS.get(number, (True, []))
    if report.failed or report.skipped:
        passed = False
    if report.when == "call":
        notes = notes + [f"{k}={v}" for k, v in report.user_properties]
    _RESULTS[number] = (passed, notes)
    _DESCRIPTIONS[number] = description


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_RESULTS):
        passed, notes = _RESULTS[number]
        status = "PASS" if passed else "FAIL"
        suffix = f" [{', '.join(notes)}]" if notes else ""
        terminalreporter.write_line(
            f"ACCEPTANCE {number}: {status} - {_DESCRIPTIONS[number]}{suffix}"
        )
