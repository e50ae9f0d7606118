"""Call ledger: which functions under ``src/repro`` the test run never enters.

A pytest plugin, loaded by name::

    PYTHONPATH=src python -m pytest -x -q -p tests.call_ledger

It works in three steps:

1. At configure time it installs ``sys.settrace`` and
   ``threading.settrace`` with a hook that returns ``None``, so the
   interpreter reports only call events and traces no lines.
2. The hook records every code object entered from a file under
   ``src/repro``.
3. At exit it lists each ``def`` under ``src/repro`` (found with
   :mod:`ast` when the run starts) whose body was never entered as
   ``path::Qualified.name`` (sorted, one a line) in ``uncalled.txt`` in the
   working directory, and prints the totals.

Only this process is traced. Code that a test reaches only in a child
process (a ``subprocess`` run, a process pool) is listed as never entered.

A generator function counts as entered once its body starts, not when it
is called. CI compares the list with ``tests/golden/uncalled.txt`` and
fails on any entry the golden does not have; regenerate the golden from a
full run when a change reaches more code or deletes some.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

import repro

SRC = os.path.dirname(os.path.abspath(repro.__file__))
ROOT = os.path.dirname(os.path.dirname(SRC))
OUT = "uncalled.txt"


def _defs(tree: ast.AST):
    """``(qualified name, first line, def line, body lines)`` of every
    ``def`` in ``tree``, nested ones included."""
    stack = [(node, "") for node in ast.iter_child_nodes(tree)]
    while stack:
        node, prefix = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}{node.name}"
            if not isinstance(node, ast.ClassDef):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield name, first, node.lineno, node.end_lineno - node.lineno + 1
            prefix = f"{name}."
        stack.extend((child, prefix) for child in ast.iter_child_nodes(node))


class CallLedger:
    """Every ``def`` under :data:`SRC`, parsed when the run starts (so the
    line numbers match the code the run imports), and the code objects
    entered while the hook is set."""

    def __init__(self) -> None:
        self.entered: set[tuple[str, int]] = set()
        self.defs: list[tuple[str, str, int, int, int]] = []
        for folder, dirs, files in os.walk(SRC):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    with open(path, encoding="utf-8") as fh:
                        tree = ast.parse(fh.read(), path)
                    rel = os.path.relpath(path, ROOT)
                    self.defs.extend(
                        (path, f"{rel}::{qualname}", first, line, length)
                        for qualname, first, line, length in _defs(tree)
                    )

    def hook(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(SRC):
            self.entered.add((code.co_filename, code.co_firstlineno))
        return None

    def uncalled(self) -> tuple[list[str], int]:
        """``(never-entered entries, their body lines)``."""
        missed = [
            (entry, length)
            for path, entry, first, line, length in self.defs
            if (path, first) not in self.entered and (path, line) not in self.entered
        ]
        return sorted(entry for entry, _ in missed), sum(length for _, length in missed)

    def pytest_unconfigure(self, config) -> None:
        sys.settrace(None)
        threading.settrace(None)
        entries, lines = self.uncalled()
        total = len(self.defs)
        with open(OUT, "w", encoding="utf-8") as fh:
            fh.writelines(entry + "\n" for entry in entries)
        print(
            f"call ledger: {len(entries)} of {total} function bodies under src/repro "
            f"never entered ({lines} lines); wrote {OUT}",
            file=sys.stderr,
        )


def pytest_configure(config) -> None:
    ledger = CallLedger()
    config.pluginmanager.register(ledger, "call-ledger")
    threading.settrace(ledger.hook)
    sys.settrace(ledger.hook)
