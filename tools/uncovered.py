"""List the statements of the nearcommute package that a pytest run never executes.

No coverage package is needed: a stdlib ``sys.settrace`` line collector
watches ``src/nearcommute/*.py`` while pytest runs in this process, and the
statements inside each module's functions (read from its AST) are compared
with the lines that ran.  Per module it prints the unexecuted statements that
are not ``raise`` and, separately, the ``raise`` statements never reached.

    python tools/uncovered.py [--modules subspace,pipeline] [pytest args ...]

With no pytest arguments it runs the tier-1 command's own arguments
(``-q --continue-on-collection-errors``).  The report is informational: the
exit status is pytest's, and hypothesis inputs move a few margins between
runs.  Runs on Python 3.10 and 3.11 (``sys.settrace``; tracing slows the
suite about twofold).
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nearcommute"
TIER1_ARGS = ["-q", "--continue-on-collection-errors"]


def statements(source: str) -> dict[int, bool]:
    """First line of every statement inside a function body, mapped to
    whether it is a ``raise``.  Docstrings, ``global``/``nonlocal`` and bare
    annotations compile to no line event and are left out."""
    found: dict[int, bool] = {}

    def visit(body, in_function):
        for k, node in enumerate(body):
            is_doc = (k == 0 and isinstance(node, ast.Expr)
                      and isinstance(node.value, ast.Constant)
                      and isinstance(node.value.value, str))
            silent = isinstance(node, (ast.Global, ast.Nonlocal)) or (
                isinstance(node, ast.AnnAssign) and node.value is None)
            if in_function and not is_doc and not silent:
                found[node.lineno] = isinstance(node, ast.Raise)
            inner = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for name in ("body", "orelse", "finalbody"):
                visit(getattr(node, name, []), inner)
            for handler in getattr(node, "handlers", []):
                visit(handler.body, inner)
            for case in getattr(node, "cases", []):
                visit(case.body, inner)

    visit(ast.parse(source).body, False)
    return found


def header_spans(source: str) -> dict[int, tuple[int, int]]:
    """For each statement, the first and last line whose event means it
    ran: the whole of a simple statement; for a compound one, its header
    through its first body line, since a header such as ``try:`` or
    ``while True:`` may emit no event of its own."""
    spans: dict[int, tuple[int, int]] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            spans[node.lineno] = (first, node.lineno)
        elif isinstance(node, ast.stmt):
            body = getattr(node, "body", None)
            last = body[0].lineno if body else node.end_lineno or node.lineno
            spans[node.lineno] = (node.lineno, last)
    return spans


def unexecuted(source: str, hit: set[int]) -> list[tuple[int, bool]]:
    """(line, is raise) of each statement that no line in ``hit`` ran."""
    spans = header_spans(source)
    return [(line, is_raise) for line, is_raise in sorted(statements(source).items())
            if hit.isdisjoint(range(spans[line][0], spans[line][1] + 1))]


class LineCollector:
    """Record (file, line) events for code objects from the given files."""

    def __init__(self, files):
        self.targets = {os.path.realpath(f) for f in files}
        self.hits: dict[str, set[int]] = {f: set() for f in self.targets}
        self._known: dict[str, set[int] | None] = {}

    def _lines_for(self, filename):
        try:
            return self._known[filename]
        except KeyError:
            real = os.path.realpath(filename)
            lines = self.hits.get(real)
            self._known[filename] = lines
            return lines

    def __call__(self, frame, event, arg):
        lines = self._lines_for(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def start(self):
        self._previous = sys.gettrace()
        threading.settrace(self)
        sys.settrace(self)

    def stop(self):
        sys.settrace(self._previous)
        threading.settrace(self._previous)


def report(collector: LineCollector, modules) -> str:
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if modules and path.stem not in modules:
            continue
        source = path.read_text()
        missed = unexecuted(source, collector.hits[os.path.realpath(path)])
        plain = [line for line, is_raise in missed if not is_raise]
        raises = [line for line, is_raise in missed if is_raise]
        lines = source.splitlines()
        out.append(f"{path.stem}: {len(plain)} unexecuted, {len(raises)} unreached raise")
        for label, group in (("unexecuted", plain), ("raise", raises)):
            for line in group:
                out.append(f"  {label:10s} {path.name}:{line}: {lines[line - 1].strip()[:72]}")
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--modules", default="",
                        help="comma-separated module names to report (default: all)")
    args, pytest_args = parser.parse_known_args(argv)
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    collector = LineCollector(PACKAGE.glob("*.py"))
    collector.start()
    try:
        status = pytest.main(pytest_args or TIER1_ARGS)
    finally:
        collector.stop()
    modules = {m for m in args.modules.split(",") if m}
    print(report(collector, modules))
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
