"""Lint: no unbuffered ``ufunc.at`` scatters in the model hot paths.

``np.add.at`` / ``np.maximum.at`` rediscover the segment structure on
every call and take NumPy's generic slow path on multi-column operands.
The layers and autograd ops in ``src/repro/nn`` and ``src/repro/models``
reduce through :class:`~repro.nn.kernels.SegmentPlan` kernels or strided
slice adds instead; the ``np.add.at`` spellings they are checked against
live in ``tests/oracles.py``. Two call sites stay, deliberately:

* ``Tensor.__getitem__``'s VJP — an arbitrary (possibly repeated) index
  has no plan to reuse;
* the 1-D ``SegmentPlan.segment_softmax`` max — NumPy's fast indexed
  loop for 1-D ``ufunc.at`` beats a sort round trip there.
"""

import ast
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"
SCANNED = ("nn", "models")

#: (path relative to ``src/repro``, qualified name of the enclosing function)
ALLOWED = frozenset(
    {
        ("nn/tensor.py", "Tensor.__getitem__.vjp"),
        ("nn/kernels.py", "SegmentPlan.segment_softmax"),
    }
)


def ufunc_at_calls():
    """``(rel_path, line, enclosing qualname)`` of every ``*.at(...)`` call."""
    found = []
    for package in SCANNED:
        for path in sorted((SRC_ROOT / package).rglob("*.py")):
            rel = path.relative_to(SRC_ROOT).as_posix()

            def visit(node, scope):
                for child in ast.iter_child_nodes(node):
                    inner = scope
                    if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                        inner = scope + (child.name,)
                    if (
                        isinstance(child, ast.Call)
                        and isinstance(child.func, ast.Attribute)
                        and child.func.attr == "at"
                    ):
                        found.append((rel, child.lineno, ".".join(scope)))
                    visit(child, inner)

            visit(ast.parse(path.read_text()), ())
    return found


def test_no_ufunc_at_outside_allowlist():
    offenders = [
        f"src/repro/{rel}:{line} ({scope or '<module>'})"
        for rel, line, scope in ufunc_at_calls()
        if (rel, scope) not in ALLOWED
    ]
    assert offenders == [], "unbuffered ufunc.at scatters:\n" + "\n".join(offenders)


def test_allowlist_is_minimal():
    # A stale entry would silently re-open a blind spot once the code it
    # names is renamed or rewritten.
    live = {(rel, scope) for rel, _, scope in ufunc_at_calls()}
    assert ALLOWED <= live, f"allowlist entries with no ufunc.at: {sorted(ALLOWED - live)}"
