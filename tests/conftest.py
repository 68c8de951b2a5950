"""Setup shared by every test module."""

import os
from pathlib import Path

import frheo

# tests that start `python -m frheo` in a child process need it to import
# the package these tests import, however pytest found it
_SRC = str(Path(frheo.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
