"""Row invariance of 2-D matrix products.

``Tensor.__matmul__`` chooses how to compute a 2-D product from the
weight's shape alone, so each output row's bits depend on that row of
the left operand and nothing else: not on how many rows ride along, nor
on where the row sits. Serving forwards only real rows on the strength
of this, so a failure here means a pair's score changes with the
company it is scored in — most likely a BLAS whose GEMM rounds a row
differently at different row counts.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import load_dataset
from repro.experiments.config import TUNED_HPARAMS, build_model
from repro.nn.dtype import compute_dtype
from repro.nn.tensor import Tensor

ROWS = 40


def _amdgcnn_products():
    """``(K, n)`` of every weight AM-DGCNN multiplies by, at each dataset's
    tuned hyperparameters (every 2-D parameter is a product's right side)."""
    shapes = set()
    for name, models in TUNED_HPARAMS.items():
        task = load_dataset(name, scale=0.05, rng=0, num_targets=10)
        model = build_model(
            "am_dgcnn",
            task.feature_config.width,
            task.num_classes,
            task.edge_attr_dim,
            models["am_dgcnn"],
        )
        shapes.update(p.data.shape for p in model.parameters() if p.data.ndim == 2)
    return sorted(shapes)


PRODUCTS = _amdgcnn_products()


@lru_cache(maxsize=None)
def _operands(k, n, dtype):
    gen = np.random.default_rng(k * 1000 + n)
    x = gen.standard_normal((ROWS, k)).astype(dtype)
    w = gen.standard_normal((k, n)).astype(dtype)
    with compute_dtype(dtype):
        full = (Tensor(x) @ Tensor(w)).data
    return x, w, full


def test_products_cover_the_tuned_models():
    """Sanity of the derived list: the narrow and the long products are in."""
    assert (64, 1) in PRODUCTS  # sort-key GATConv at hidden 64
    assert (128, 3) in PRODUCTS and (128, 18) in PRODUCTS  # lin2 heads
    assert (1890, 128) in PRODUCTS  # lin1 of the tuned primekg model


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("k,n", PRODUCTS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_row_bits_do_not_depend_on_neighbours(k, n, dtype, data):
    m = data.draw(st.integers(1, ROWS), label="rows")
    a = data.draw(st.integers(0, ROWS - m), label="offset")
    x, w, full = _operands(k, n, dtype)
    with compute_dtype(dtype):
        part = (Tensor(x[a : a + m]) @ Tensor(w)).data
    assert part.dtype == np.dtype(dtype)
    np.testing.assert_array_equal(
        part,
        full[a : a + m],
        err_msg=f"rows {a}:{a + m} of a ({ROWS}, {k}) @ ({k}, {n}) {dtype} product "
        "changed bits with the rows around them",
    )
