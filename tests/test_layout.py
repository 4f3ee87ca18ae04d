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


def _calls_by_function(name):
    """Every call of ``name`` in the package, as "module.function" of the
    innermost function around it."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [(ast.parse(path.read_text(), str(path)), None)]
        while stack:
            node, owner = stack.pop()
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == name:
                found.append(f"{path.stem}.{owner}")
            if isinstance(node, ast.FunctionDef):
                owner = node.name
            stack.extend((child, owner) for child in ast.iter_child_nodes(node))
    return sorted(found)


def test_each_sieve_has_one_reader():
    # the odd-only prime sieve is the package's only sieve: build_tables
    # reads it, and it reads itself for its primes <= sqrt(limit). No
    # least-prime-factor sieve is defined, and mu is sieved from the
    # tables' own primes, so mobius_upto runs no sieve of its own
    assert _calls_by_function("_primes_upto") == [
        "arith._primes_upto", "arith.build_tables"]
    functions = [(path.stem, node) for path in sorted(PACKAGE.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(), str(path)))
                 if isinstance(node, ast.FunctionDef)]
    assert not [f"{stem}.{node.name}" for stem, node in functions
                if node.name == "_least_prime_factors"]
    mobius = [node for stem, node in functions
              if (stem, node.name) == ("arith", "mobius_upto")]
    assert len(mobius) == 1
    assert "_primes_upto" not in _references(mobius[0])


def test_table_primes_come_from_the_odd_only_sieve():
    # build_tables makes the only MultiplicativeTables in the package, and
    # its primes are the name bound to _primes_upto(limit) and nothing else
    assert _calls_by_function("MultiplicativeTables") == ["arith.build_tables"]
    tree = ast.parse((PACKAGE / "arith.py").read_text())
    build = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "build_tables")
    made = next(node for node in ast.walk(build) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "MultiplicativeTables")
    primes = next(k.value for k in made.keywords if k.arg == "primes")
    assert isinstance(primes, ast.Name)
    bound = [node.value for node in ast.walk(build) if isinstance(node, ast.Assign)
             and any(isinstance(n, ast.Name) and n.id == primes.id
                     for t in node.targets for n in ast.walk(t))]
    assert [ast.unparse(value) for value in bound] == ["_primes_upto(limit)"]
