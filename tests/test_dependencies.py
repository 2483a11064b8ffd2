"""The runtime dependency of akpz is numpy only, its configuration is its
flags and config files (no module reads the environment), its modules
import each other in layers, only lattice reads a configuration's
positions by label, every cached function hands out read-only arrays,
every defaulted parameter of an engine function is set by some call in
src/akpz or bench, and every engine function, method and property is
named there, bar a listed few that only tests set or read."""

import ast
import dataclasses
import importlib
import re
import sys
from pathlib import Path

import numpy as np
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


def _is_cache(node):
    """Whether node is functools.lru_cache or functools.cache, bare or called."""
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in {"lru_cache", "cache"}


def _cached_functions():
    """(module, name) of every cached function in akpz: decorated, or bound
    to the result of lru_cache(...)(function)."""
    found = set()
    for path in sorted((ROOT / "src" / "akpz").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(map(_is_cache, node.decorator_list)):
                    found.add((path.stem, node.name))
            elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                  and _is_cache(node.value.func)):
                found.update((path.stem, t.id) for t in node.targets)
    return found


def _arrays_in(value):
    """The ndarrays in value, looking inside tuples, namedtuples and dataclasses."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays_in(item)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            yield from _arrays_in(getattr(value, f.name))


def _cached_inputs():
    """A small input for each cached function, by (module, name)."""
    from akpz.lattice import TorusParams
    from akpz.sde import ModelParams, drift_coeffs
    torus, coeffs = TorusParams(L=8, N=3, m1=2, m2=2), drift_coeffs(ModelParams(C=0.75, D=1.5))
    return {
        ("lattice", "label_table"): (torus,),
        ("lattice", "_up_loop"): (torus,),
        ("ctmc", "_q_powers"): (0.5, 8),
        ("ctmc", "_rate_kernel"): (torus, 0.5),
        ("correlations", "_mode_table"): (8, 3, coeffs),
        ("correlations", "_riemann_grid"): (coeffs, 16),
    }


def test_every_cached_function_hands_out_read_only_arrays():
    # a cache hands the same result to every caller, so one caller's write
    # would reach the next; a new cache needs an input listed here
    inputs = _cached_inputs()
    assert _cached_functions() == set(inputs)
    total = 0
    for (module, name), args in inputs.items():
        result = getattr(importlib.import_module(f"akpz.{module}"), name)(*args)
        for a in _arrays_in(result):
            assert not a.flags.writeable, (module, name)
            total += 1
    assert total >= 6 + 1 + 1 + 8 + 5  # label_table, _up_loop, _q_powers, _mode_table, _riemann_grid


ENGINE = ("lattice", "ctmc", "sde", "correlations", "specfun")

# the defaulted engine parameters that only tests set, each with its reason
_REFINEMENT = ("tests reach refinement failures and odd-m starts through them, "
               "and criterion 11(b) uses tol=1e-5")
TEST_ONLY_OPTIONS = {(fn, name): _REFINEMENT
                     for fn in ("covariance_quadrature", "stationary_cov_infinite")
                     for name in ("tol", "m_start", "m_max")}


def _defaulted_parameters(tree):
    """(function, parameter, position) of each defaulted parameter of a
    function in tree; position counts from 0 past self or cls, and is None
    for a keyword-only parameter."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            pos = args.posonlyargs + args.args
            skip = int(bool(pos) and pos[0].arg in ("self", "cls"))
            for k in range(len(pos) - len(args.defaults), len(pos)):
                yield node.name, pos[k].arg, k - skip
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, None


def _sets(call, name, position):
    """Whether call passes the parameter name at position: by position, by
    keyword, or through *args or **kwargs."""
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg in (None, name) for k in call.keywords)
            or position is not None and len(call.args) > position)


def test_every_engine_option_has_a_caller():
    # an option that no program sets is a constant; the sources are parsed,
    # never imported, and calls are matched by name or by attribute
    paths = sorted((ROOT / "src" / "akpz").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                calls.setdefault(name, []).append(node)
    engine = [tree for path, tree in trees.items()
              if path.parent.name == "akpz" and path.stem in ENGINE]
    has_caller = {(fn, name): any(_sets(call, name, position) for call in calls.get(fn, ()))
                  for tree in engine for fn, name, position in _defaulted_parameters(tree)}
    assert set(TEST_ONLY_OPTIONS) <= set(has_caller)
    assert {option for option, set_ in has_caller.items() if not set_} == set(TEST_ONLY_OPTIONS)


# the engine functions, methods and properties that only tests read, each with its reason
_ORACLE = "the one-label oracle that the generator and simulate are checked against"
TEST_REFERENCES = {
    "jump_rate": _ORACLE,
    "apply_jump": _ORACLE,
    "log_stationary_weight": _ORACLE,
    "sector": "the start-independence test",
    "occupancy": "tests match states by it",
    "basis_matrix": "the dense reference of field_transform",
    "symbol_W": "the small-k form that symbol_R is checked against",
}


def test_every_engine_member_has_a_program_reader():
    # a member that no program reads is dead code; a name counts when src/akpz
    # or bench names it as a variable, an attribute or an import
    paths = sorted((ROOT / "src" / "akpz").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    named, members = set(), set()
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        if path.parent.name == "akpz" and path.stem in ENGINE:
            members.update(node.name for node in ast.walk(tree)
                           if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                           and not node.name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    assert set(TEST_REFERENCES) <= members
    assert members - named == set(TEST_REFERENCES)
