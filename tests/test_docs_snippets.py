"""Executable-documentation guard for docs/EXTENDING.md."""

import re
from pathlib import Path

import pytest

DOC = Path(__file__).resolve().parent.parent / "docs" / "EXTENDING.md"


def python_blocks() -> list[str]:
    text = DOC.read_text(encoding="utf-8")
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


class TestExtendingDoc:
    def test_has_nine_walkthroughs(self):
        assert len(python_blocks()) == 9

    @pytest.mark.parametrize(
        "index,block",
        list(enumerate(python_blocks())),
        ids=[f"block{i}" for i in range(len(python_blocks()))],
    )
    def test_snippet_executes(self, index, block):
        exec(compile(block, f"EXTENDING.md:python-block-{index}", "exec"), {})
