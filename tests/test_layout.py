"""Layout checks on the package source itself."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bvlab"


def _references(tree, skip=None):
    """Names a tree refers to: every ast.Name, ast.Attribute and import
    alias, outside the node ``skip``. Strings and docstrings never count."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _defined_names(node):
    """Names a top-level statement defines: a function or class name, or
    each name an assignment binds (tuple targets included)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _public_methods(node):
    """The methods and properties a public class defines under public
    names. Dataclass fields are assignments, not methods, so they stay
    exempt: config keys are read through ``fields()``."""
    if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
        return []
    return [item for item in node.body
            if isinstance(item, ast.FunctionDef)
            and not item.name.startswith("_")]


def test_every_public_definition_has_a_caller():
    # callers live in the package, the benchmark and the scripts; tests
    # do not count, so a definition or constant only tests reach belongs in
    # the tests. The rule covers the public methods and properties of
    # public classes too. Private names, dunders such as __version__
    # included, are exempt.
    modules = sorted(PACKAGE.glob("*.py"))
    paths = modules + sorted((ROOT / "perfbench").glob("*.py")) \
        + sorted((ROOT / "scripts").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    refs = {path: _references(tree) for path, tree in trees.items()}
    uncalled = []
    for path in modules:
        elsewhere = set().union(*(r for p, r in refs.items() if p != path))
        for node in trees[path].body:
            for name in _defined_names(node):
                if not name.startswith("_") and name not in elsewhere \
                        and name not in _references(trees[path], skip=node):
                    uncalled.append(f"{path.stem}.{name}")
            for method in _public_methods(node):
                if method.name not in elsewhere \
                        and method.name not in _references(trees[path], skip=method):
                    uncalled.append(f"{path.stem}.{node.name}.{method.name}")
    assert not uncalled, uncalled


def test_table_data_is_read_through_the_readers():
    # outside arith, sieved data is reached only through jumps,
    # von_mangoldt_upto, mobius_upto, primes and limit, so every read of
    # Lambda or mu is refused past the range of the caller's tables
    stored = {"prime_powers", "prime_power_logs", "mobius"}
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "arith":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in stored:
                reads.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert not reads, reads


def test_int_arguments_are_checked_by_one_helper():
    # "an int and not a bool" is stated once, in characters._check_int:
    # every other isinstance(..., bool) in the package is a second copy
    copies = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        helper = next((node for node in tree.body
                       if isinstance(node, ast.FunctionDef)
                       and path.stem == "characters"
                       and node.name == "_check_int"), None)
        stack = [tree]
        while stack:
            node = stack.pop()
            if node is helper:
                continue
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "isinstance" and len(node.args) == 2 \
                    and "bool" in _references(node.args[1]):
                copies.append(f"{path.name}:{node.lineno}")
            stack.extend(ast.iter_child_nodes(node))
    assert not copies, copies
