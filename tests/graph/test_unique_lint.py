"""Lint: no values-only ``np.unique`` in the graph and stream hot paths.

NumPy 2.x (measured on 2.4.6) answers ``np.unique(a)`` without
``return_index``, ``return_inverse``, ``return_counts`` or ``axis`` from
a hash table and sorts the result afterwards. On the 14k–60k int64 keys
a BFS level or an extraction batch dedupes, that is ~14x slower than
``np.sort`` plus a neighbour mask, which
:func:`repro.utils.arrays.sorted_unique` spells with the same sorted
output. Calls that ask for any of those options take NumPy's sort path
and stay allowed.
"""

import ast
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"
SCANNED = ("graph", "stream")
SORT_PATH_OPTIONS = frozenset({"return_index", "return_inverse", "return_counts", "axis"})


def values_only_unique_lines(source):
    """Line of every ``np.unique(...)`` call in ``source`` with no sort-path option."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "unique"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("np", "numpy")
        and not SORT_PATH_OPTIONS & {kw.arg for kw in node.keywords}
    ]


def test_no_values_only_unique():
    offenders = [
        f"src/repro/{path.relative_to(SRC_ROOT).as_posix()}:{line}"
        for package in SCANNED
        for path in sorted((SRC_ROOT / package).rglob("*.py"))
        for line in values_only_unique_lines(path.read_text())
    ]
    assert offenders == [], (
        "values-only np.unique (use repro.utils.arrays.sorted_unique):\n"
        + "\n".join(offenders)
    )


def test_detector_tells_the_two_paths_apart():
    source = "\n".join(
        [
            "np.unique(a)",
            "np.unique(a, return_counts=True)",
            "np.unique(a, axis=0)",
            "numpy.unique(a.ravel())",
            "np.unique(a, return_inverse=True, return_counts=True)",
        ]
    )
    assert values_only_unique_lines(source) == [1, 4]
