"""Lint: every literal metric name under ``src/repro`` is ``namespace.rest``.

The profile report groups metrics by the first dotted segment of their
names (:func:`repro.obs.profile.metric_sections`), so an undotted name
would land in a section of its own. The check covers every string
literal in the name argument of ``obs.count`` / ``obs.observe`` /
``obs.gauge`` — both branches of a conditional name included.
"""

import ast
import re
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"
RECORDERS = ("count", "observe", "gauge")
DOTTED = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")


def metric_name_literals():
    """``(rel_path, line, name)`` of every literal metric name passed to obs."""
    found = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        rel = path.relative_to(SRC_ROOT).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in RECORDERS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "obs"
                and node.args
            ):
                continue
            for leaf in ast.walk(node.args[0]):
                if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str):
                    found.append((rel, leaf.lineno, leaf.value))
    return found


def test_metric_names_are_dotted():
    offenders = [
        f"src/repro/{rel}:{line} {name!r}"
        for rel, line, name in metric_name_literals()
        if not DOTTED.match(name)
    ]
    assert offenders == [], "metric names without a namespace:\n" + "\n".join(offenders)


def test_lint_sees_the_call_sites():
    # A scanner that silently matched nothing would pass the check above.
    names = {name for _, _, name in metric_name_literals()}
    assert len(names) >= 50
    assert {"serve.requests", "store.mmap.opens", "store.full.opens"} <= names
