"""Declared runtime dependencies match what the package imports."""

import ast
import importlib
import importlib.util
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def third_party_imports() -> set[str]:
    found = set()
    for path in (ROOT / "src" / "quditzx").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found.update(name.split(".")[0] for name in names)
    return found - set(sys.stdlib_module_names) - {"quditzx"}


def test_declared_dependencies_match_imports() -> None:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0].lower()
                for req in project["dependencies"]}
    assert declared == third_party_imports()



# Decorators that register what they decorate, which is a use of it:
# catalog rules.
REGISTERING_DECORATORS = {"_rule"}


def registered(node: ast.FunctionDef | ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        func = dec.func if isinstance(dec, ast.Call) else dec
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in REGISTERING_DECORATORS:
            return True
    return False


def test_no_module_level_definition_is_dead() -> None:
    """Every function or class defined at module level in the package is
    named somewhere besides its own definition."""
    package = sorted((ROOT / "src" / "quditzx").glob("*.py"))
    others = [path for folder in ("tests", "demos", "bench")
              for path in sorted((ROOT / folder).glob("*.py"))]
    words = Counter(re.findall(r"\w+", "\n".join(p.read_text() for p in package + others)))
    dead = [
        f"{path.name}:{node.name}"
        for path in package
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not registered(node)
        and words[node.name] < 2
    ]
    assert dead == []


def test_no_module_level_import_is_unused() -> None:
    """Every name that a top-level import of the package binds is read in
    its module, unless its line says ``# noqa: F401``."""
    unused = []
    for path in sorted((ROOT / "src" / "quditzx").glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text, str(path))
        lines = text.splitlines()
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for stmt in tree.body:
            if isinstance(stmt, ast.Import):
                bound = [(alias, alias.asname or alias.name.partition(".")[0]) for alias in stmt.names]
            elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
                bound = [(alias, alias.asname or alias.name) for alias in stmt.names]
            else:
                continue
            unused += [f"{path.name}:{name}" for alias, name in bound
                       if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]]
    assert unused == []


def test_no_nested_function_is_dead() -> None:
    """Every function defined inside a function of the package is loaded
    by name somewhere in the function that encloses it."""
    dead = []
    for path in sorted((ROOT / "src" / "quditzx").glob("*.py")):
        for outer in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            loaded = {node.id for node in ast.walk(outer)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            dead += [f"{path.name}:{outer.name}.{inner.name}"
                     for stmt in outer.body for inner in ast.walk(stmt)
                     if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and inner.name not in loaded]
    assert dead == []


def test_bench_tracer_restores_every_target() -> None:
    """The benchmark's tracer patches module attributes by name, among
    them quditzx.rewrite.gamma, which rewrite imports only for it: every
    target must exist, be wrapped while installed, and come back after."""
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    owners = []
    for target, attr, _ in tracer.TARGETS:
        modname, _, clsname = target.partition(":")
        owner = importlib.import_module(modname)
        owners.append((getattr(owner, clsname) if clsname else owner, attr))
    before = [getattr(owner, attr) for owner, attr in owners]
    t = tracer.Tracer()
    try:
        t.install()
        wrapped = [getattr(owner, attr) is not fn for (owner, attr), fn in zip(owners, before)]
    finally:
        t.uninstall()
    assert all(wrapped)
    assert [getattr(owner, attr) for owner, attr in owners] == before


def test_package_parses_at_the_declared_python_floor() -> None:
    """Syntax newer than ``requires-python`` allows fails here, with no
    interpreter of that version needed."""
    spec = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["requires-python"]
    floor = min(tuple(map(int, v.split("."))) for v in re.findall(r">=\s*(\d+\.\d+)", spec))
    for path in sorted((ROOT / "src" / "quditzx").glob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=floor)
