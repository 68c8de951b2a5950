"""Static hygiene of the package source, read with the ast module.

Every module in src/frheo except the re-exporting __init__.py must use
each name it imports, and every private module-level name
(a leading underscore, not a dunder) must be read somewhere in the
package; tests do not count as readers.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "frheo"
TREES = {p.name: ast.parse(p.read_text(encoding="utf-8"), str(p))
         for p in sorted(SRC.glob("*.py"))}
CHECKED = sorted(name for name in TREES if name != "__init__.py")


def _loaded(tree) -> set:
    """Names a module reads: bare names and attribute names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _imported(tree) -> dict:
    """Binding name -> line of every import in a module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
    return out


def _private_defs(tree) -> dict:
    """Private module-level functions, classes and assigned names -> line."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                out[name] = node.lineno
    return out


@pytest.mark.parametrize("module", CHECKED)
def test_no_unused_import(module):
    tree = TREES[module]
    loaded = _loaded(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree).items()
              if name not in loaded]
    assert not unused, f"{module} imports but never uses: {', '.join(unused)}"


@pytest.mark.parametrize("module", CHECKED)
def test_no_dead_private_name(module):
    read = set().union(*(_loaded(t) for t in TREES.values()))
    for tree in TREES.values():  # a sibling importing the name reads it
        read |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                 for a in n.names}
    dead = [f"{name} (line {line})" for name, line in _private_defs(TREES[module]).items()
            if name not in read]
    assert not dead, f"{module} defines but never reads: {', '.join(dead)}"


def _outside_convolution_helper(tree):
    """Nodes of a module outside the body of fracops._causal_convolve."""
    skip = {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
            and f.name == "_causal_convolve" for n in ast.walk(f)}
    return (n for n in ast.walk(tree) if id(n) not in skip)


def _dotted(node) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


@pytest.mark.parametrize("module", CHECKED)
def test_one_convolution_path(module):
    # every convolution goes through fracops._causal_convolve, so that a
    # direct O(n^2) sum or an unsplit FFT cannot come back unnoticed
    found = [f"{_dotted(n)} (line {n.lineno})"
             for n in _outside_convolution_helper(TREES[module])
             if isinstance(n, ast.Attribute)
             and (_dotted(n).split(".")[:2] in (["np", "fft"], ["numpy", "fft"])
                  or _dotted(n) in ("np.convolve", "numpy.convolve"))]
    assert not found, f"{module} convolves outside _causal_convolve: {', '.join(found)}"


def _readers(name: str) -> list:
    """module:function of every function in the package that reads name."""
    return [f"{module}:{f.name}" for module, tree in TREES.items()
            for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
            and any(isinstance(n, ast.Name) and n.id == name for n in ast.walk(f))]


def test_one_mittag_leffler_node_sum():
    # the grid evaluator and every caller share one contour sum: the node
    # logarithms are read inside special._ml_contour and nowhere else
    assert _readers("_NODE_LOG") == ["special.py:_ml_contour"]


def test_one_mittag_leffler_route_order():
    # every Mittag-Leffler value takes one route order: the grid's contour
    # pass, then the per-point chain for what it does not certify, so a
    # second order (a scalar chain of its own) cannot come back unnoticed
    assert _readers("_ml_contour") == ["special.py:_ml_grid"]
    for route in ("_taylor", "_alg_asym", "_series_mpf"):
        assert _readers(route) == ["special.py:_ml_point"], route
