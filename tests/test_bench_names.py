"""Every function the benchmark's tracer wraps still exists in the package,
and every other top-level function or class in it, and every method or
property of its classes, has a caller there.

bench/spans.py names its targets by module and attribute and resolves them
only when a traced run starts, so a rename or deletion under src/ would
otherwise first show up as a failed `bench/run.py --trace 1`.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
SRC = Path(__file__).resolve().parents[1] / "src" / "filicoh"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    spans = load_spans()
    missing = []
    for name, modname, attr in spans.TARGETS + spans.COUNTED:
        obj = importlib.import_module(f"filicoh.{modname}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append((name, f"filicoh.{modname}.{attr}"))
    assert not missing
    assert hasattr(importlib.import_module("filicoh.cli"), "ThreadPoolExecutor")


def loaded_names(node, skip):
    """The names and attributes read anywhere under node, outside skip."""
    if node is skip:
        return
    if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
        yield node.id if isinstance(node, ast.Name) else node.attr
    for child in ast.iter_child_nodes(node):
        yield from loaded_names(child, skip)


def definitions(tree):
    """(qualified name, node) of each top-level function and class of a
    module, and of each non-dunder method and property of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def test_every_definition_is_used_or_traced():
    # a top-level function or class, or a method or property, of src/ whose
    # name no code in src/ reads outside its own definition is dead, unless
    # the bench traces it
    spans = load_spans()
    traced = set()
    for _, modname, attr in spans.TARGETS + spans.COUNTED:
        traced |= {f"{modname}.{attr}", f"{modname}.{attr.split('.')[0]}"}
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unused = {
        f"{modname}.{name}"
        for modname, tree in trees.items()
        for name, node in definitions(tree)
        if not any(node.name in loaded_names(other, node) for other in trees.values())
    }
    assert unused <= traced, sorted(unused - traced)
