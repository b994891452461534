"""Every fenced python block of README.md runs cleanly, each in a fresh
namespace, so an API change that breaks the quick start fails here, as
tests/test_demos.py does for the demos."""

import re
import warnings
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs_cleanly(capsys, block):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(block, str(README), "exec"), {"__name__": "__main__"})
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out


def test_readme_blocks_are_found():
    assert BLOCKS
