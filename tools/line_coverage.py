#!/usr/bin/env python3
"""The lines of src/frheo that no test runs, found with the standard library.

    python3 tools/line_coverage.py [pytest arguments]

Runs pytest in this process (default arguments: -q tests) with a
sys.settrace hook that follows only frames of files under src/frheo and
records each line they execute, then prints `<file>:<line>: <source>` for
every line that holds code (a line of some code object of the file) and
never ran. Tests that run frheo in a subprocess are not counted, so a line
only they reach is listed. The trace slows the suite about twofold: on a
2-core x86-64 virtual machine tier-1 took about 48 s under it against
about 24 s without.
"""

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src" / "frheo")
sys.path.insert(0, str(ROOT / "src"))
ran = set()


def _lines(frame, event, arg):
    ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    return _lines(frame, event, arg) if frame.f_code.co_filename.startswith(SRC) else None


def _code_lines(code):
    """Every line number that code or a code object nested in it runs."""
    out = {line for _, _, line in code.co_lines() if line}  # 0: no source line
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            out |= _code_lines(const)
    return out


threading.settrace(_calls)
sys.settrace(_calls)
status = pytest.main(sys.argv[1:] or ["-q", "tests"])
sys.settrace(None)
for path in sorted(Path(SRC).glob("*.py")):
    text = path.read_text()
    source = text.splitlines()
    for line in sorted(_code_lines(compile(text, str(path), "exec"))):
        if (str(path), line) not in ran:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
sys.exit(status)
