"""Source hygiene of the package, read with the standard library's ast only:
every import is used, every exported name is defined where it is imported
from, and every private module-level name is read somewhere in the
package."""

import ast
import importlib.util
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "heinegas"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _exports(tree):
    """The string names listed in a top-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _top_level_names(tree):
    """Names bound by the module's top-level statements."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def _used_names(tree):
    """Every name the module reads, including those inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for hint in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(hint, ast.Constant) and isinstance(hint.value, str):
                used |= _used_names(ast.parse(hint.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    tree = _tree(path)
    used = _used_names(tree) | set(_exports(tree))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in used:
                    unused.append(f"line {node.lineno}: {bound}")
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_exports_resolve(path):
    # a name in __all__ must be bound in the module, and a name imported
    # from a sibling module must be bound there
    trees = {p.stem: _tree(p) for p in MODULES}
    tree = trees[path.stem]
    missing = [name for name in _exports(tree) if name not in _top_level_names(tree)]
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in trees:
            source = _top_level_names(trees[node.module])
            missing += [
                f"{node.module}.{a.name}" for a in node.names if a.name not in source
            ]
    assert not missing, f"{path.name} exports or imports undefined names: {missing}"


def _read_names(tree):
    """Every name the module reads: loaded names, attributes, names it
    imports from elsewhere, and names inside string annotations."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
        for hint in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(hint, ast.Constant) and isinstance(hint.value, str):
                read |= _read_names(ast.parse(hint.value, mode="eval"))
    return read


def test_private_names_are_read():
    # a private module-level name that nothing in the package reads is a
    # dead helper left behind by a removal
    trees = {p.name: _tree(p) for p in MODULES}
    read = set().union(*(_read_names(tree) for tree in trees.values()))
    unread = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in sorted(_top_level_names(tree))
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]
    assert not unread, f"private names nothing reads: {unread}"


def _constant_calls(tree):
    """Source text of each call expression a top-level assignment binds."""
    return {
        ast.unparse(node.value)
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Call)
    }


def test_no_constant_built_in_two_modules():
    # two modules building one constant from the same call keep two copies
    # that can drift apart; one module should import it from the other
    built = {}
    for path in MODULES:
        for call in _constant_calls(_tree(path)):
            built.setdefault(call, []).append(path.name)
    twice = {call: names for call, names in built.items() if len(names) > 1}
    assert not twice, f"constants built in more than one module: {twice}"


def test_benchmark_tracer_names_exist():
    # the traced benchmark wraps package names; importing its tracer
    # resolves every function it wraps, and each method must be on CountLaw
    from heinegas.heine import CountLaw

    path = SRC.parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    methods = [attr for _, attrs in tracing._METHODS for attr in attrs]
    missing = [attr for attr in methods if not hasattr(CountLaw, attr)]
    assert not missing, f"CountLaw lacks traced methods: {missing}"
