"""``src/vjlab`` holds what a run executes; oracles live with the tests.

An AST walk starts at ``cli.main``, every ``cli.cmd_*`` function and every
module-level assignment (``lab`` imports every module, so those run:
``verify.CHECKS``, ``config.VARIANTS``), and follows, from each:
- a bare name, through the module's own definitions and constants and its
  ``from .module import name as alias`` imports;
- an attribute ``x.name``, to every method called ``name`` in any module,
  whatever ``x`` is; ``src`` reaches its top-level functions by name, through
  ``from .module import``. A same-named attribute thus counts as a use:
  ``np.log`` would keep a ``Tensor.log`` method. The walk can miss dead code
  that way, but it never flags code a run executes;
- a reached class, to its body's statements and its dunder methods, which
  Python calls without naming them. Of an annotated name in its body only
  the value runs: a field declared ``accuracy: float`` uses no ``accuracy``.

The top-level functions, classes and methods it does not reach must be
exactly ``UNREACHED``, each with its reason. A method of an unreached class
is reported as its class. An oracle or alias that only tests call belongs
in ``tests/oracles.py``, or in the tests themselves, not in ``src``.

The tests themselves are checked for a name that a module or class body
defines twice: Python keeps the second definition, so the first never runs.
"""

import ast
from pathlib import Path

import vjlab

UNREACHED = {
    "synth.MixtureSpec": "mixture sampling of criterion 7, to be wired into runs",
    "synth.sample_mixture": "mixture sampling of criterion 7, to be wired into runs",
    "synth.mixture_draw": "mixture sampling of criterion 7, to be wired into runs",
    "synth.image_as_clip": "image clips of criterion 7, to be wired into runs",
    "synth.gen_motion_clip": "one clip of gen_motion_dataset; its own behaviour is tested",
    "probing.cross_entropy": "the checked entry to the probe loss; its own behaviour is tested",
    "tensor.Tensor.detach": "a graph-free copy; its own behaviour is tested",
}

SRC = Path(vjlab.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


class Module:
    """One source file's definitions, constants and imported names."""

    def __init__(self, name: str, tree: ast.Module):
        self.nodes: dict[str, ast.AST] = {}  # "module.f", "module.C", "module.C.m", "module.X"
        self.defs: set[str] = set()  # the functions, classes and methods among them
        self.imports: dict[str, tuple[str, str]] = {}  # local name -> (module, name)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                self.add(f"{name}.{stmt.name}", stmt)
            if isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if isinstance(item, ast.FunctionDef):
                        self.add(f"{name}.{stmt.name}.{item.name}", item)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name):
                            self.nodes[f"{name}.{leaf.id}"] = stmt
        for node in ast.walk(tree):  # an import inside a function binds a name too
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    self.imports[alias.asname or alias.name] = (node.module, alias.name)

    def add(self, key: str, node: ast.AST) -> None:
        self.nodes[key] = node
        self.defs.add(key)


def load_modules() -> dict[str, Module]:
    return {path.stem: Module(path.stem, ast.parse(path.read_text()))
            for path in sorted(SRC.glob("*.py"))}


def resolve(modules: dict[str, Module], module: str, name: str) -> str | None:
    """The definition or constant ``name`` means in ``module``, through imports."""
    seen = set()
    while (module, name) not in seen:
        seen.add((module, name))
        mod = modules.get(module)
        if mod is None:
            return None
        if f"{module}.{name}" in mod.nodes:
            return f"{module}.{name}"
        if name not in mod.imports:
            return None
        module, name = mod.imports[name]
    return None


def own_parts(node: ast.AST) -> list[ast.AST]:
    """What reaching a node runs: a class's bases, decorators and body
    statements without its methods, which are reached one by one, and
    without the names and annotations of its annotated fields."""
    if isinstance(node, ast.ClassDef):
        body = [s.value if isinstance(s, ast.AnnAssign) else s for s in node.body
                if not isinstance(s, ast.FunctionDef)]
        return [*node.bases, *node.keywords, *node.decorator_list, *filter(None, body)]
    return [node]


def reached(modules: dict[str, Module], roots: list[str]) -> set[str]:
    by_attr: dict[str, list[str]] = {}  # method name -> every method so named
    for mod in modules.values():
        for key in mod.defs:
            if key.count(".") == 2:
                by_attr.setdefault(key.rsplit(".", 1)[-1], []).append(key)
    seen: set[str] = set()
    todo = list(roots)
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        module = key.split(".", 1)[0]
        mod = modules[module]
        node = mod.nodes[key]
        if isinstance(node, ast.ClassDef):
            todo += [f"{key}.{item.name}" for item in node.body
                     if isinstance(item, ast.FunctionDef)
                     and item.name.startswith("__") and item.name.endswith("__")]
        for part in own_parts(node):
            for leaf in ast.walk(part):
                if isinstance(leaf, ast.Name):
                    target = resolve(modules, module, leaf.id)
                    if target is not None:
                        todo.append(target)
                elif isinstance(leaf, ast.Attribute):
                    todo += by_attr.get(leaf.attr, [])
    return seen


def unreached() -> set[str]:
    modules = load_modules()
    roots = [key for mod in modules.values() for key in mod.nodes
             if key not in mod.defs or key == "cli.main" or key.startswith("cli.cmd_")]
    assert "cli.main" in roots and "cli.cmd_verify" in roots
    seen = reached(modules, roots)
    missing = {key for mod in modules.values() for key in mod.defs - seen}
    # a method of an unreached class is reported as its class
    return {key for key in missing if key.rsplit(".", 1)[0] not in missing}


def test_src_holds_only_what_a_run_reaches():
    missing = unreached()
    assert missing == set(UNREACHED), (
        f"unreached and not listed: {sorted(missing - set(UNREACHED))}; "
        f"listed but reached or gone: {sorted(set(UNREACHED) - missing)}")


def defined_twice(tree: ast.Module) -> list[str]:
    """Each function or class that its module or class body defines again
    under the same name, by dotted name and the line of the later definition."""
    twice = []
    bodies = [("", tree.body)]
    while bodies:
        prefix, body = bodies.pop()
        seen = set()
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if stmt.name in seen:
                    twice.append(f"{prefix}{stmt.name} (line {stmt.lineno})")
                seen.add(stmt.name)
                if isinstance(stmt, ast.ClassDef):
                    bodies.append((f"{prefix}{stmt.name}.", stmt.body))
    return twice


def test_defined_twice_sees_module_and_class_bodies():
    tree = ast.parse("def f(): pass\n"
                     "class A:\n    def t(self): pass\n    def t(self): pass\n"
                     "class B:\n    def t(self): pass\n    class C:\n        def u(self): pass\n"
                     "        def u(self): pass\n"
                     "def f(): pass\n")
    assert sorted(defined_twice(tree)) == ["A.t (line 4)", "B.C.u (line 9)", "f (line 10)"]


def test_no_test_module_defines_a_name_twice():
    twice = {path.name: defined_twice(ast.parse(path.read_text()))
             for path in sorted(TESTS.glob("*.py"))}
    assert {name: found for name, found in twice.items() if found} == {}
