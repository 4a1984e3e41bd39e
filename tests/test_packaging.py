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


def definitions(tree: ast.Module):
    """Each module-level function or class, and each method of a
    module-level class, with its dotted name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def uses(path: Path, spelled: bool) -> list[tuple[str, int]]:
    """Each name that ``path`` loads, by name or as an attribute, or
    imports, with its line; with ``spelled``, each string constant too."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            found += [(alias.name, node.lineno) for alias in node.names]
        elif spelled and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.append((node.value, node.lineno))
    return found


def test_no_module_level_definition_is_dead() -> None:
    """Every module-level function and class of the package, and every
    method, is used outside its own body by the package, the benchmark,
    the tools or the demos: loaded, imported, or, in the benchmark and
    the tools, spelled as a string, as the tracer names what it patches.
    Tests do not count, and neither does a public name's entry in
    ``__init__._HOMES``: a public name needs a real use too.  Catalog
    rules and dunders are exempt; test oracles live in
    ``tests/oracles.py``."""
    package = sorted((ROOT / "src" / "quditzx").glob("*.py"))
    users = [(path, False) for path in package]
    users += [(path, folder != "demos") for folder in ("bench", "tools", "demos")
              for path in sorted((ROOT / folder).glob("*.py"))]
    where: dict[str, list[tuple[Path, int]]] = {}  # each used name: the file and line of each use
    for path, spelled in users:
        for name, line in uses(path, spelled):
            where.setdefault(name, []).append((path, line))
    dead = []
    for path in package:
        for qualname, node in definitions(ast.parse(path.read_text(), str(path))):
            if registered(node) or node.name.startswith("__") and node.name.endswith("__"):
                continue
            span = range(node.lineno, node.end_lineno + 1)
            if all(user == path and line in span for user, line in where.get(node.name, ())):
                dead.append(qualname)
    assert not dead, "used only by tests: " + ", ".join(sorted(dead))


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


def test_report_digest_runs_its_wiring_corpus() -> None:
    """``tools/report_digest.py`` calls the package's wiring check on its
    own: each file of its corpus gives an error text or a port table."""
    spec = importlib.util.spec_from_file_location("report_digest", ROOT / "tools" / "report_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    outcomes = digest.wiring_outcomes(digest.ERRORS_SEED)
    assert len(outcomes) == 600
    kinds = Counter(type(o).__name__ for o in outcomes)
    assert set(kinds) == {"str", "list"}, kinds
    assert all(type(p) is int for o in outcomes if type(o) is list for p in o)


def test_report_digest_prints_one_line_per_cli_run() -> None:
    """``tools/report_digest.py`` runs ``quditzx check`` in-process and
    prints its arguments, exit code and the sha256 of its stdout."""
    spec = importlib.util.spec_from_file_location("report_digest", ROOT / "tools" / "report_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    line = digest.cli_line(("ZX-GI", "--dim", "2", "--samples", "1"))
    assert re.fullmatch(r"cli check ZX-GI --dim 2 --samples 1 exit=0 [0-9a-f]{64}", line), line
    assert line == digest.cli_line(("ZX-GI", "--dim", "2", "--samples", "1"))
    assert digest.cli_line(("ZX-GI", "--dim", "1")).startswith("cli check ZX-GI --dim 1 exit=2 ")
    assert len(digest.CLI_RUNS) == 3


@pytest.mark.parametrize("base, head, wins, lower, want", [
    ([80.0, 82.0, 84.0], [45.0, 46.0, 47.0], 10, True, "gain"),
    ([80.0, 82.0, 84.0], [45.0, 46.0, 47.0], 9, True, "gain"),
    ([80.0, 82.0, 84.0], [45.0, 46.0, 47.0], 8, True, "flat"),  # fewer than 9 of 10 pairs won
    ([80.0, 82.0, 84.0], [77.0, 78.5, 80.0], 10, True, "flat"),  # better by 3.5, the base IQR is 4
    ([80.0, 82.0, 84.0], [95.0, 95.0, 96.0], 0, True, "worse"),  # 13 past 82, more than 0.15 * 82
    ([80.0, 82.0, 84.0], [93.0, 94.0, 95.0], 0, True, "flat"),  # 12 past 82, within 0.15 * 82
    ([70.0, 82.0, 83.0], [82.0, 82.0, 82.0], 5, True, "unresolved"),  # IQR 13, more than 0.15 * 82
    ([2.0, 3.0, 4.0], [3.5, 4.0, 4.5], 10, False, "unresolved"),  # higher is better: won, within the IQR
    ([2.9, 3.0, 3.1], [3.5, 4.0, 4.5], 10, False, "gain"),
    ([2.9, 3.0, 3.1], [2.0, 2.5, 3.0], 0, False, "worse"),
])
def test_bench_pairs_verdict(base, head, wins, lower, want) -> None:
    """``tools/bench_pairs.py``'s rule, for a metric of bound 0.15: a gain
    needs 9 of 10 pairs and a median past the base IQR; worse is past the
    bound; a base IQR wider than the bound leaves it unresolved."""
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    assert pairs.PAIRS == 10
    assert pairs.verdict(base, head, wins, 0.15, lower) == want


def test_bench_pairs_claims_no_gain_where_the_head_failed_more_ops() -> None:
    """A head that failed more ops than the base gets no ``gain``; the
    other verdicts do not read the failures."""
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    won = ([80.0, 82.0, 84.0], [45.0, 46.0, 47.0], 10, 0.15, True)
    assert pairs.verdict(*won, more_failed=False) == "gain"
    assert pairs.verdict(*won, more_failed=True) == "flat"
    assert pairs.verdict([80.0, 82.0, 84.0], [95.0, 95.0, 96.0], 0, 0.15, True, more_failed=True) == "worse"


def test_package_parses_at_the_declared_python_floor() -> None:
    """Syntax newer than ``requires-python`` allows fails here, with no
    interpreter of that version needed."""
    spec = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["requires-python"]
    floor = min(tuple(map(int, v.split("."))) for v in re.findall(r">=\s*(\d+\.\d+)", spec))
    for path in sorted((ROOT / "src" / "quditzx").glob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=floor)
