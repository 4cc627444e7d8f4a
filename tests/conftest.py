import os
from pathlib import Path

# Child interpreters (the CLI, determinism and import tests) import the
# package from this checkout, as the tests do, whether or not PYTHONPATH
# already names src/ (pyproject's pythonpath covers only this process).
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
              if p])

acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.line(line)
