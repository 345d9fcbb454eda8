"""The README's library quick start must run against the current package,
and its table of command-line flags must match the parser."""

import re
from pathlib import Path

from spectralorder.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert block is not None, "README.md has no python block"
    exec(compile(block.group(1), str(README), "exec"), {})


def test_flag_table_matches_the_parser():
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", README.read_text(encoding="utf-8"), re.MULTILINE)
    table = {command: set(re.findall(r"`(--[\w-]+)`", flags)) for command, flags in rows}
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    parser = {
        command: {s for a in p._actions if a.dest != "help" for s in a.option_strings}
        for command, p in sub.choices.items()
    }
    assert table == parser
