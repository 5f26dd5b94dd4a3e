"""Shared pytest hooks: surface the acceptance criterion verdicts in the
terminal summary even when output capture is on, and one hypothesis
profile for every property test."""

from hypothesis import settings

# property examples call exact kernels whose run time varies with the drawn
# size, so a per-example deadline only flakes on a loaded machine
settings.register_profile("plandscape", deadline=None)
settings.load_profile("plandscape")

acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.line(line)
