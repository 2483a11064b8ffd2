"""The runtime dependency of akpz is numpy only, its configuration is its
flags and config files (no module reads the environment), its modules
import each other in layers, and only lattice reads a configuration's
positions by label."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_modules_import_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    for path in sorted((ROOT / "src" / "akpz").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, (path.name, node.lineno, name)


# the package modules each engine module may import; cli, __init__ and
# __main__ sit on top of all of them
LAYERS = {
    "errors": set(),
    "specfun": {"errors"},
    "lattice": {"errors"},
    "sde": {"errors", "lattice"},
    "ctmc": {"errors", "lattice", "sde"},
    "correlations": {"errors", "lattice", "sde", "specfun"},
}


def test_internal_imports_follow_the_layers():
    paths = sorted((ROOT / "src" / "akpz").glob("*.py"))
    assert {p.stem for p in paths} == set(LAYERS) | {"cli", "__init__", "__main__"}
    for path in paths:
        if path.stem not in LAYERS:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                names = [node.module] if node.module else [a.name for a in node.names]
                for name in names:
                    assert name.split(".")[0] in LAYERS[path.stem], (path.name, node.lineno, name)


def test_modules_do_not_read_the_environment():
    reads = {"environ", "environb", "getenv", "getenvb"}
    for path in sorted((ROOT / "src" / "akpz").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                found = (isinstance(node.value, ast.Name) and node.value.id == "os"
                         and node.attr in reads)
            elif isinstance(node, ast.ImportFrom):
                found = node.module == "os" and any(a.name in reads for a in node.names)
            else:
                continue
            assert not found, (path.name, node.lineno)


def test_only_lattice_subscripts_positions():
    # every other module reads a configuration in label order through
    # lattice.label_positions
    for path in sorted((ROOT / "src" / "akpz").glob("*.py")):
        if path.stem == "lattice":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            found = (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                     and node.value.attr == "positions")
            assert not found, (path.name, node.lineno)


def test_pyproject_declares_numpy_as_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]
