"""Module/Parameter registration, traversal, state_dict, modes."""

import numpy as np
import pytest

from repro.models.layers import GATConv
from repro.nn.dense import MLP, Dropout, Linear
from repro.nn.module import Module, ModuleList, Parameter
from repro.nn.tensor import Tensor


class TwoLayer(Module):
    def __init__(self):
        super().__init__()
        self.a = Linear(3, 4, rng=0)
        self.b = Linear(4, 2, rng=1)

    def forward(self, x):
        return self.b(self.a(x))


class TestRegistration:
    def test_parameters_collected_in_order(self):
        m = TwoLayer()
        names = [n for n, _ in m.named_parameters()]
        assert names == ["a.weight", "a.bias", "b.weight", "b.bias"]

    def test_num_parameters(self):
        m = TwoLayer()
        assert m.num_parameters() == 3 * 4 + 4 + 4 * 2 + 2

    def test_register_none_parameter(self):
        # Without edge attributes GATConv registers its edge parameters as None.
        conv = GATConv(2, 3, rng=0)
        assert conv.edge_weight is None and conv.att_edge is None
        assert [n for n, _ in conv.named_parameters()] == [
            "weight", "att_src", "att_dst", "bias"
        ]

    def test_modules_iterates_tree(self):
        m = TwoLayer()
        kinds = [type(x).__name__ for x in m.modules()]
        assert kinds == ["TwoLayer", "Linear", "Linear"]


class TestStateDict:
    def test_roundtrip(self):
        m1, m2 = TwoLayer(), TwoLayer()
        state = m1.state_dict()
        m2.load_state_dict(state)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3)))
        np.testing.assert_allclose(m1(x).data, m2(x).data)

    def test_state_dict_is_a_copy(self):
        m = TwoLayer()
        state = m.state_dict()
        state["a.weight"][:] = 0
        assert not np.allclose(m.a.weight.data, 0)

    def test_missing_key_raises(self):
        m = TwoLayer()
        state = m.state_dict()
        del state["a.bias"]
        with pytest.raises(KeyError):
            m.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        m = TwoLayer()
        state = m.state_dict()
        state["a.weight"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            m.load_state_dict(state)


class TestModes:
    def test_train_eval_recursive(self):
        m = Module()
        m.lin = Linear(2, 2, rng=0)
        m.drop = Dropout(0.5, rng=0)
        m.eval()
        assert all(not mod.training for mod in m.modules())
        m.train()
        assert all(mod.training for mod in m.modules())

    def test_dropout_respects_eval(self):
        d = Dropout(0.9, rng=0)
        x = Tensor(np.ones((8, 8)))
        d.eval()
        np.testing.assert_allclose(d(x).data, 1.0)

    def test_zero_grad(self):
        m = TwoLayer()
        out = m(Tensor(np.ones((1, 3)))).sum()
        out.backward()
        assert m.a.weight.grad is not None
        m.zero_grad()
        assert all(p.grad is None for p in m.parameters())


class TestContainers:
    def test_module_list(self):
        ml = ModuleList([Linear(2, 2, rng=0)])
        ml.append(Linear(2, 2, rng=1))
        assert len(ml) == 2
        assert len(list(iter(ml))) == 2
        # Parameters from both registered children are discoverable.
        holder = Module()
        holder.items = ml
        assert len(holder.parameters()) == 4

    def test_module_list_call_raises(self):
        with pytest.raises(RuntimeError):
            ModuleList([])(Tensor(np.ones(2)))


class TestMLP:
    def test_shapes_and_final_linear(self):
        mlp = MLP([4, 8, 3], rng=0)
        out = mlp(Tensor(np.random.default_rng(0).normal(size=(5, 4))))
        assert out.shape == (5, 3)
        # Logits can be negative (no final activation).
        mlp2 = MLP([2, 2], rng=0)
        data = mlp2(Tensor(np.array([[-10.0, -10.0]]))).data
        assert data.shape == (1, 2)

    def test_requires_two_dims(self):
        with pytest.raises(ValueError):
            MLP([4])

    def test_invalid_linear_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 3)
