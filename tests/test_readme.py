"""README.md stays true: its Python blocks run, and its fixed-settings table
names constants that exist with the stated values."""

import importlib
import math
import re
from pathlib import Path

import pytest

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", README, re.S)
# rows of the fixed-settings table: | `NAME` | `module` | value | check |
SETTING_ROWS = re.findall(r"^\| `(\w+)` \| `(\w+)` \| ([^|]+?) \|", README, re.M)


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_python_block_runs(index, capsys):
    exec(compile(PYTHON_BLOCKS[index], "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_fixed_settings_table():
    assert len(SETTING_ROWS) >= 12
    for name, module, value in SETTING_ROWS:
        mod = importlib.import_module(f"nearcommute.{module}")
        got = getattr(mod, name)
        if value == "π/2":
            assert got == math.pi / 2, name
        elif value.startswith("`"):
            assert got is getattr(mod, value.strip("`")), name
        else:
            assert got == float(value), name
