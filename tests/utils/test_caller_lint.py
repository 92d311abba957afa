"""Lint: every library module, function, class and method has a caller outside
``tests/``, and every import is read.

A module under ``src/repro`` whose top-level names (functions, classes,
constants) are used only by tests is code the reproduction never runs.
Each module must define at least one name used by a file under
``src/``, ``examples/``, ``benchmarks/`` or ``scripts/``. A package
``__init__`` re-exporting a name is not a use; a caller importing it
through the package is. Entry points are not checked themselves:
package ``__init__`` modules and ``__main__.py``.

The same holds one level down: every top-level ``def`` and ``class``
under ``src/repro``, private ones included, must be loaded by one of
those files or elsewhere in its own module (outside its own body and
``__all__``). Dunder names (``__getattr__``, ``__dir__``) are called by
the interpreter and are exempt.

Methods and properties are matched by name, as no type information is
at hand: each one defined in a class under ``src/repro`` must be read
as an attribute (``x.name``, or ``getattr(x, "name")``) by one of those
files, or by its own module outside its own body. Dunders are exempt. A
read off a name the file binds to an imported module (``np.exp``,
``F.relu``) is a module attribute, not a method, and does not count.

Last, a module-level import that its module never reads is dead too
(package ``__init__`` re-exports and ``from __future__`` aside).
"""

import ast
import importlib.util
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
CALLER_DIRS = ("src", "examples", "benchmarks", "scripts")
ENTRY_POINTS = ("__init__.py", "__main__.py")


def module_name(path):
    """Dotted name of ``path`` under ``src/`` (packages drop ``__init__``)."""
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def package_of(path):
    """The package a caller file's relative imports resolve against."""
    return module_name(path).rpartition(".")[0] if path.is_relative_to(SRC) else ""


def defined_names(tree):
    """Names bound by the module's top-level statements."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _dotted(node):
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def used_names(tree, package):
    """``(module, name)`` pairs a file reads from other modules.

    ``package`` is the file's own package, for relative imports. Covers
    ``from m import n`` and attribute reads through an imported module
    (``import m`` / ``from p import m`` then ``m.n``).
    """
    uses, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                uses.add((base, alias.name))
                aliases[alias.asname or alias.name] = f"{base}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    aliases[root] = root
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain = _dotted(node.value)
            if chain is None:
                continue
            root, _, rest = chain.partition(".")
            if root in aliases:
                owner = aliases[root] + ("." + rest if rest else "")
                uses.add((owner, node.attr))
    return uses


def caller_files():
    for top in CALLER_DIRS:
        for path in sorted((REPO / top).rglob("*.py")):
            if top == "src" and path.name == "__init__.py":
                continue  # a re-export is not a use
            yield path


def local_loads(tree, skip):
    """Names the module's top-level statements load, ``skip`` and ``__all__`` aside."""
    names = set()
    for node in tree.body:
        if node is skip:
            continue
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                names.add(sub.id)
    return names


def owners_of(name):
    """``name`` and every enclosing package: the paths a definition is reachable by."""
    return [name.rsplit(".", i)[0] for i in range(name.count(".") + 1)]


def callers_by_name():
    """``(module, name)`` -> the caller files that use it."""
    callers = defaultdict(set)
    for path in caller_files():
        for use in used_names(ast.parse(path.read_text()), package_of(path)):
            callers[use].add(path)
    return callers


def unused_definitions(tree, name, path, callers):
    """Top-level ``def``/``class`` names of ``tree`` (module ``name``) nothing loads."""
    owners = owners_of(name)
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        defined = node.name
        if defined.startswith("__") and defined.endswith("__"):
            continue
        if defined in local_loads(tree, node):
            continue
        if any(callers[(owner, defined)] - {path} for owner in owners):
            continue
        unused.append(defined)
    return unused


def definitions_without_callers():
    callers = callers_by_name()
    orphans = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text())
        rel = path.relative_to(REPO).as_posix()
        for defined in unused_definitions(tree, module_name(path), path, callers):
            orphans.append(f"{rel}::{defined}")
    return orphans


def modules_without_callers():
    callers = callers_by_name()
    orphans = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        if path.name in ENTRY_POINTS:
            continue
        tree = ast.parse(path.read_text())
        # A name is reachable through its module or any enclosing package.
        owners = owners_of(module_name(path))
        if not any(
            callers[(owner, defined)] - {path}
            for owner in owners
            for defined in defined_names(tree)
        ):
            orphans.append(path.relative_to(REPO).as_posix())
    return orphans


def _is_module(name):
    try:
        return importlib.util.find_spec(name) is not None
    except (ImportError, ValueError):  # ``name``'s parent is not a package
        return False


def module_aliases(tree, package=""):
    """Names ``tree`` binds to imported modules (``np``, ``F``, ``math``, ...).

    ``import m`` and ``import m as a`` always bind a module; ``from p import
    n`` does when ``p.n`` is one. ``package`` resolves relative imports.
    """
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            aliases.update(
                a.asname or a.name for a in node.names if _is_module(f"{base}.{a.name}")
            )
    return aliases


def attribute_reads(tree, skip=None, package=""):
    """Attribute names ``tree`` reads, outside the subtree ``skip``.

    ``x.name`` in load context, and ``getattr``/``hasattr`` with a literal
    name; a read off an imported module (``np.exp``) is not counted.
    """
    modules = module_aliases(tree, package)
    reads, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if not (isinstance(node.value, ast.Name) and node.value.id in modules):
                reads.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            reads.add(node.args[1].value)
        stack.extend(ast.iter_child_nodes(node))
    return reads


def unused_methods(tree, read_elsewhere, package=""):
    """``Class.method`` names of ``tree`` that neither ``read_elsewhere`` nor
    the module itself (outside the method's body) reads as an attribute."""
    unused = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in read_elsewhere or name in attribute_reads(tree, node, package):
                continue
            unused.append(f"{cls.name}.{name}")
    return unused


def methods_without_callers():
    reads = {
        path: attribute_reads(ast.parse(path.read_text()), package=package_of(path))
        for path in caller_files()
    }
    orphans = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        elsewhere = set().union(*(r for p, r in reads.items() if p != path))
        rel = path.relative_to(REPO).as_posix()
        tree = ast.parse(path.read_text())
        for method in unused_methods(tree, elsewhere, package_of(path)):
            orphans.append(f"{rel}::{method}")
    return orphans


def _annotation_names(tree):
    """Names inside string annotations (``x: "Foo"``)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for annotation in filter(None, annotations):
            for sub in ast.walk(annotation):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    try:
                        expr = ast.parse(sub.value, mode="eval")
                    except SyntaxError:
                        continue
                    names.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return names


def unread_imports(tree):
    """Names bound by module-level imports that the module never reads.

    Imports nested in a top-level ``if``/``try`` (``TYPE_CHECKING``
    blocks, optional dependencies) count as module level; a name listed
    in ``__all__`` counts as read.
    """
    bound = []

    def collect(body):
        for node in body:
            if isinstance(node, ast.Import):
                bound.extend(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.extend(a.asname or a.name for a in node.names)
            elif isinstance(node, (ast.If, ast.Try)):
                collect(node.body)
                collect(node.orelse)
                for handler in getattr(node, "handlers", []):
                    collect(handler.body)

    collect(tree.body)
    reads = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    reads |= _annotation_names(tree)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            reads |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [name for name in bound if name not in reads]


def imports_never_read():
    unread = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        rel = path.relative_to(REPO).as_posix()
        unread.extend(f"{rel}::{name}" for name in unread_imports(ast.parse(path.read_text())))
    return unread


def test_every_module_has_a_caller_outside_tests():
    orphans = modules_without_callers()
    assert orphans == [], (
        "modules only tests use (delete them, or call them from the library):\n"
        + "\n".join(orphans)
    )


def test_every_function_and_class_has_a_caller_outside_tests():
    orphans = definitions_without_callers()
    assert orphans == [], (
        "functions and classes only tests use (delete them, or move them "
        "into tests/ if a test needs them as a reference):\n" + "\n".join(orphans)
    )


def test_unused_definitions_names_orphans_and_spares_used_names():
    module = "\n".join(
        [
            '__all__ = ["orphan", "used_here", "used_elsewhere"]',
            "def orphan():",
            "    return orphan()  # a call inside its own body is not a use",
            "def _helper():",
            "    return 1",
            "def used_here():",
            "    return _helper()",
            "class used_elsewhere:",
            "    pass",
            "def __getattr__(name):",
            "    raise AttributeError(name)",
            "TABLE = {'here': used_here}",
        ]
    )
    caller = "from repro.pkg import used_elsewhere"
    callers = defaultdict(set)
    for use in used_names(ast.parse(caller), ""):
        callers[use].add(Path("caller.py"))
    path = Path("mod.py")
    unused = unused_definitions(ast.parse(module), "repro.pkg.mod", path, callers)
    assert unused == ["orphan"]


def test_used_names_resolves_the_import_forms():
    source = "\n".join(
        [
            "from repro.nn.optim import Adam",
            "from repro.nn import functional as F",
            "import repro.graph.bulk",
            "from . import sibling",
            "F.relu(x)",
            "repro.graph.bulk.multi_source_bfs(g)",
            "sibling.helper()",
        ]
    )
    uses = used_names(ast.parse(source), "repro.data")
    assert {
        ("repro.nn.optim", "Adam"),
        ("repro.nn.functional", "relu"),
        ("repro.graph.bulk", "multi_source_bfs"),
        ("repro.data.sibling", "helper"),
    } <= uses


def test_every_method_has_a_caller_outside_tests():
    orphans = methods_without_callers()
    assert orphans == [], (
        "methods and properties only tests read (delete them; a test that "
        "needs one keeps an inline helper):\n" + "\n".join(orphans)
    )


def test_unused_methods_names_orphans_and_spares_used_names():
    module = "\n".join(
        [
            "class Store:",
            "    def orphan(self):",
            "        return self.orphan()  # a read inside its own body is not a use",
            "    def used_here(self):",
            "        return 1",
            "    def total(self):",
            "        return self.used_here()",
            "    def looked_up(self):",
            "        return 2",
            "    @property",
            "    def size(self):",
            "        return 3",
            "    def __len__(self):",
            "        return 0",
        ]
    )
    caller = "\n".join(
        ["s = Store()", "s.total()", "print(s.size)", 'getattr(s, "looked_up")()']
    )
    unused = unused_methods(ast.parse(module), attribute_reads(ast.parse(caller)))
    assert unused == ["Store.orphan"]


def test_reads_off_an_imported_module_are_not_method_uses():
    module = "\n".join(
        [
            "class Tensor:",
            "    def exp(self):",
            "        return 1",
            "    def relu(self):",
            "        return 2",
        ]
    )
    caller = "\n".join(
        [
            "import numpy as np",
            "from repro.nn import functional as F",
            "from repro.nn.tensor import Tensor",
            "np.exp(0.0)",
            "F.relu(x)",
            "np.linalg.norm(x).relu()  # a read off a call result counts",
        ]
    )
    reads = attribute_reads(ast.parse(caller))
    assert {"exp", "linalg", "Tensor"}.isdisjoint(reads)
    assert {"norm", "relu"} <= reads
    assert unused_methods(ast.parse(module), reads) == ["Tensor.exp"]


def test_every_import_is_read():
    unread = imports_never_read()
    assert unread == [], "imports their module never reads:\n" + "\n".join(unread)


def test_unread_imports_names_dead_imports_and_spares_read_ones():
    module = "\n".join(
        [
            "from __future__ import annotations",
            "import os",
            "import numpy as np",
            "import repro.graph.bulk",
            "from typing import TYPE_CHECKING, Optional, Tuple",
            "from repro.store import save_task",
            "if TYPE_CHECKING:",
            "    from repro.data.store import SubgraphStore",
            '__all__ = ["save_task"]',
            'def f(x: Optional[int], s: "SubgraphStore") -> int:',
            "    return np.abs(x) + repro.graph.bulk.K",
        ]
    )
    assert unread_imports(ast.parse(module)) == ["os", "Tuple"]
