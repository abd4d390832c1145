"""The README's examples run as written."""

import re
import shlex
import shutil
from pathlib import Path

from zetamoments.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str) -> str:
    """The first fenced code block after a '## heading' line."""
    text = README.read_text(encoding="utf-8")
    match = re.search(rf"^## {heading}\n.*?```[a-z]*\n(.*?)```", text, re.S | re.M)
    assert match, heading
    return match.group(1)


def test_command_line_and_library_examples_run(tmp_path, monkeypatch):
    # each command on a T = 1e3 sweep in a fresh directory; diff compares
    # the audit report with a copy of itself
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line) for line in _block("Command line").splitlines()]
    assert [argv[0] for argv in commands] == ["zetamoments"] * 9
    for argv in commands:
        if argv[1] == "diff":
            shutil.copy("report.json", "other.json")
        assert main(argv[1:]) == EXIT_OK, argv
    exec(_block("Library"), {})
