"""Properties of the library source itself."""

import ast
import importlib
import sys
from pathlib import Path

import wthi

SOURCES = sorted(Path(wthi.__file__).parent.glob("*.py"))
WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def test_no_assert_statements():
    # `python -O` strips assert statements, so library checks must be explicit.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and found == []


def test_library_imports_only_numpy_and_the_stdlib():
    allowed = set(sys.stdlib_module_names) | {"numpy", "wthi"}
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # relative imports stay inside wthi
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in allowed]
    assert SOURCES and found == []


def test_no_unused_imports():
    # an imported name no code reads is dead; this also keeps the benchmark's
    # traced names (looked up as module attributes) from living on as imports only
    found = []
    for path in SOURCES:
        if path.name == "__init__.py":  # re-exports the public names
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.Import)
                   or isinstance(node, ast.ImportFrom) and node.module != "__future__"]
        found += [f"{path.name}:{node.lineno} {name}" for node in imports
                  for name in (alias.asname or alias.name.split(".")[0] for alias in node.names)
                  if name not in read]
    assert SOURCES and found == []


def traced_attributes() -> list[tuple[str, str]]:
    """The (module, attribute) pairs of ``TRACED`` in bench/workloads.py, read with ast.

    Each entry is a tuple ``(module, attribute, namer)`` or a starred list
    comprehension ``*[(module, f, namer) for f in (...)]``.
    """
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    traced = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    )
    pairs = []
    for entry in traced.elts:
        if isinstance(entry, ast.Starred):
            comp = entry.value
            module = ast.literal_eval(comp.elt.elts[0])
            pairs += [(module, attr) for attr in ast.literal_eval(comp.generators[0].iter)]
        else:
            pairs.append((ast.literal_eval(entry.elts[0]), ast.literal_eval(entry.elts[1])))
    return pairs


def test_benchmark_traced_attributes_resolve():
    # a traced run patches these names; removing one breaks `bench/run.py --trace 1`
    pairs = traced_attributes()
    missing = [
        f"{module}.{attr}" for module, attr in pairs
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert len(pairs) > 20 and missing == []


def test_all_lists_exactly_the_imported_names():
    # a name removed from the package but left in __all__ breaks `from wthi import *`
    tree = ast.parse(Path(wthi.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert wthi.__all__ == sorted(set(wthi.__all__))
    assert set(wthi.__all__) == imported
    assert all(hasattr(wthi, name) for name in wthi.__all__)


def test_argument_checks_are_defined_only_in_errors():
    checks = {"_is_integral", "_require_finite_nonneg", "_count", "_check_budget",
              "_ENUMERATION_BUDGET"}
    found = {}
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = {node.name} if isinstance(node, ast.FunctionDef) else {
                t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)}
            for name in names & checks:
                found.setdefault(name, []).append(path.name)
    assert found == dict.fromkeys(checks, ["errors.py"])


def test_source_stays_below_the_roadmap_ceiling():
    # the library's line budget: growth past it has to be paid for with removals
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in SOURCES)
    assert lines < 2067, lines


def test_every_private_module_name_is_read():
    # a helper left behind when its last caller is folded away is dead code
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):  # imported by a sibling module
                read.update(alias.name for alias in node.names)
    defined = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            else:
                targets = [t.id for t in getattr(node, "targets", [getattr(node, "target", None)])
                           if isinstance(t, ast.Name)]
            defined += [(name, t) for t in targets if t.startswith("_") and not t.startswith("__")]
    assert len(defined) > 20 and [d for d in defined if d[1] not in read] == []
