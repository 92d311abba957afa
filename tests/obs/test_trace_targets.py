"""The benchmark tracer's targets resolve against the library.

``benchmarks/e2e/trace.py`` times layers from the outside by replacing
named module and class attributes. A library rename would otherwise
surface only when a ``--trace`` benchmark run fails; resolving every
target here makes it a tier-1 failure.
"""

import importlib.util
from pathlib import Path

TRACE_PY = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "trace.py"


def load_trace_module():
    spec = importlib.util.spec_from_file_location("e2e_trace", TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    trace = load_trace_module()
    targets = list(trace.iter_targets())
    assert len(targets) == len(trace.TARGETS) + 1  # plus LOADER_ITER
    for owner, attr in targets:
        # install() wraps vars(owner)[attr]: the name must be the owner's
        # own attribute (not inherited) and callable.
        assert attr in vars(owner), f"{owner!r} has no attribute {attr!r}"
        assert callable(vars(owner)[attr]), f"{owner!r}.{attr} is not callable"
