"""The README's command-line examples run as written.

Each ``dynlab ...`` line of the README's shell blocks runs in order,
through ``cli.main``, in one temporary directory, so later commands
read the files earlier ones emit.  Each must exit 0 (holds) or 1 (a
property fails) and print a report that parses as JSON.
"""

import json
import re
import shlex
from pathlib import Path

from dynlab.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# The two-sided example reads sys.json, a system with the points b0, b1,
# a0, a1 that no earlier command makes: it shows the lasso file format,
# and cannot run as written.
ILLUSTRATIVE = "sys.json"


def readme_commands():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    return [shlex.split(line)[1:] for block in blocks
            for line in block.splitlines() if line.startswith("dynlab ")]


def test_readme_commands_run_in_order(capsys, tmp_path, monkeypatch):
    commands = readme_commands()
    runnable = [argv for argv in commands if ILLUSTRATIVE not in argv]
    assert len(commands) - len(runnable) == 1 and runnable
    monkeypatch.chdir(tmp_path)
    for argv in runnable:
        code = main(argv)
        out = capsys.readouterr().out
        assert code in (0, 1), argv
        assert isinstance(json.loads(out), dict), argv
