"""Lint: every library module has a caller outside ``tests/``.

A module under ``src/repro`` whose top-level names (functions, classes,
constants) are used only by tests is code the reproduction never runs.
Each module must define at least one name used by a file under
``src/``, ``examples/``, ``benchmarks/`` or ``scripts/``. A package
``__init__`` re-exporting a name is not a use; a caller importing it
through the package is. Entry points are not checked themselves:
package ``__init__`` modules, ``__main__.py`` and modules run with
``python -m`` (a top-level ``if __name__ == "__main__":`` block).
"""

import ast
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
CALLER_DIRS = ("src", "examples", "benchmarks", "scripts")
ENTRY_POINTS = ("__init__.py", "__main__.py")


def is_script(tree):
    """Whether the module has a top-level ``if __name__ == "__main__":`` block."""
    return any(
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and isinstance(node.test.left, ast.Name)
        and node.test.left.id == "__name__"
        for node in tree.body
    )


def module_name(path):
    """Dotted name of ``path`` under ``src/`` (packages drop ``__init__``)."""
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


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


def modules_without_callers():
    callers = defaultdict(set)  # (module, name) -> files that use it
    for path in caller_files():
        package = module_name(path).rpartition(".")[0] if path.is_relative_to(SRC) else ""
        for use in used_names(ast.parse(path.read_text()), package):
            callers[use].add(path)

    orphans = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        if path.name in ENTRY_POINTS:
            continue
        tree = ast.parse(path.read_text())
        if is_script(tree):
            continue
        name = module_name(path)
        # A name is reachable through its module or any enclosing package.
        owners = [name.rsplit(".", i)[0] for i in range(name.count(".") + 1)]
        if not any(
            callers[(owner, defined)] - {path}
            for owner in owners
            for defined in defined_names(tree)
        ):
            orphans.append(path.relative_to(REPO).as_posix())
    return orphans


def test_every_module_has_a_caller_outside_tests():
    orphans = modules_without_callers()
    assert orphans == [], (
        "modules only tests use (delete them, or call them from the library):\n"
        + "\n".join(orphans)
    )


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
