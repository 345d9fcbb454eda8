"""The README's library quick start must run against the current package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert block is not None, "README.md has no python block"
    exec(compile(block.group(1), str(README), "exec"), {})
