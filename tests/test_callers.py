"""Every module-level name and method of the library has a caller outside
the tests.

The library's roots are the names the benchmark harness
(``perfbench/*.py``) mentions as a name or an attribute, and the names a
module reads outside its definitions (``cli``'s ``__main__`` call, say).
A definition reaches each name it reads, in its own module or imported
from another library module, so a name reached only from code that
nothing reaches counts as unreached too.  A reached class brings its
dunder and decorated methods; any other method of it counts as reached
only once reached code or the harness mentions its name, in any module
(an attribute's owner is not known before run time).  Code that only
the tests call belongs in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "smallmotion"
HARNESS = ROOT / "perfbench"


def _defined(tree: ast.Module) -> dict:
    """Each module-level function, class and assigned name -> the
    statement that defines it."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, ast.Assign):
            out.update((name.id, node) for target in node.targets
                       for name in ast.walk(target)
                       if isinstance(name, ast.Name))
    return out


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _methods(node) -> dict:
    """The methods of a class that come only when named: neither dunder
    nor decorated; none for any other definition."""
    if not isinstance(node, ast.ClassDef):
        return {}
    return {fn.name: fn for fn in node.body
            if isinstance(fn, ast.FunctionDef) and not fn.decorator_list
            and not _is_dunder(fn.name)}


def _mentioned(nodes) -> set:
    """The names, attribute names and imported names under ``nodes``."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
            elif isinstance(sub, ast.alias):
                out.add(sub.name)
    return out


def test_every_library_name_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(LIBRARY.glob("*.py"))}
    defs = {module: _defined(tree) for module, tree in trees.items()}
    # local name -> (module, name) it is imported from
    imports = {module: {alias.asname or alias.name: (node.module, alias.name)
                        for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom) and node.level == 1
                        for alias in node.names}
               for module, tree in trees.items()}

    def resolve(module, names):
        return {(module, name) if name in defs[module]
                else imports[module][name] for name in names
                if name in defs[module] or name in imports[module]}

    harness = _mentioned(ast.parse(path.read_text())
                         for path in sorted(HARNESS.glob("*.py")))
    todo = []
    for module, tree in trees.items():
        definitions = list(map(id, defs[module].values()))
        todo += resolve(module, _mentioned(
            node for node in tree.body if id(node) not in definitions
            and not isinstance(node, ast.ImportFrom)))
        todo += resolve(module, harness & defs[module].keys())
    reached, said = set(), set(harness)
    waiting = {}    # (module, "Class.method") -> its def, its class reached
    while True:
        while todo:
            module, name = todo.pop()
            if (module, name) in reached or name not in defs.get(module, {}):
                continue
            reached.add((module, name))
            node = defs[module][name]
            methods = _methods(node)
            waiting.update(((module, f"{name}.{method}"), fn)
                           for method, fn in methods.items())
            names = _mentioned(
                [node] if not methods else
                [*node.bases, *node.keywords, *node.decorator_list,
                 *(sub for sub in node.body if sub not in methods.values())])
            said |= names
            todo += resolve(module, names)
        named = [key for key in waiting if key[1].split(".")[1] in said]
        if not named:
            break
        for module, key in named:
            names = _mentioned([waiting.pop((module, key))])
            said |= names
            todo += resolve(module, names)
    unreached = [f"{module}.{name}" for module in defs for name in defs[module]
                 if (module, name) not in reached and not _is_dunder(name)]
    unreached += [f"{module}.{key}" for module, key in waiting]
    assert not unreached, f"library names no caller reaches: {unreached}"
