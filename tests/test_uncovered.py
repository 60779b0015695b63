"""The unexecuted-statement report of tools/uncovered.py, on a small module."""

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "uncovered.py"


@pytest.fixture(scope="module")
def uncovered():
    spec = importlib.util.spec_from_file_location("uncovered", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


SOURCE = textwrap.dedent('''\
    X = 1


    def f(x):
        """doc"""
        if x > 0:
            return x
        elif x < -10:
            raise ValueError(
                "far")
        try:
            y = -x
        except ZeroDivisionError:
            raise
        return y
    ''')


def test_statements_inside_functions_only(uncovered):
    # the module-level assignment and the docstring are not listed
    assert uncovered.statements(SOURCE) == {
        6: False, 7: False, 8: False, 9: True, 11: False, 12: False, 14: True, 15: False}


def test_collector_records_the_lines_run(uncovered, tmp_path):
    path = tmp_path / "small.py"
    path.write_text(SOURCE)
    collector = uncovered.LineCollector([path])
    code = compile(SOURCE, str(path), "exec")
    namespace = {}
    exec(code, namespace)
    outer = sys.gettrace()
    collector.start()
    try:
        namespace["f"](2)
        namespace["f"](-1)
    finally:
        collector.stop()
    assert sys.gettrace() is outer
    # the raise in the elif and the except handler's raise never run
    assert uncovered.unexecuted(SOURCE, collector.hits[str(path.resolve())]) == [
        (9, True), (14, True)]
