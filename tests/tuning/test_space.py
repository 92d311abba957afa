"""Search-space dimensions: sampling and encoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tuning.space import Choice, Integer, Real, SearchSpace, paper_table1_space


def decode(d, unit):
    """Inverse of ``d.encode``; the round trips below check that encoding loses nothing.

    The tuner only ever encodes (it proposes sampled configurations), so
    the inverse lives here.
    """
    if isinstance(d, SearchSpace):
        out, i = {}, 0
        for dim in d.dimensions:
            out[dim.name] = decode(dim, unit[i : i + dim.encoded_width])
            i += dim.encoded_width
        return out
    if isinstance(d, Choice):
        return d.options[int(np.argmax(unit))]
    u = float(np.clip(unit[0], 0.0, 1.0))
    if isinstance(d, Integer):
        return int(round(d.low + u * (d.high - d.low)))
    if d.log:
        lo, hi = np.log(d.low), np.log(d.high)
        return float(np.exp(lo + u * (hi - lo)))
    return float(d.low + u * (d.high - d.low))


class TestReal:
    def test_sample_within_bounds(self):
        d = Real("lr", 1e-6, 1e-2, log=True)
        gen = np.random.default_rng(0)
        for _ in range(50):
            v = d.sample(gen)
            assert 1e-6 <= v <= 1e-2

    def test_log_sampling_spreads_decades(self):
        d = Real("lr", 1e-6, 1e-2, log=True)
        gen = np.random.default_rng(0)
        samples = np.array([d.sample(gen) for _ in range(500)])
        # Log-uniform: ~25% of mass in each of the four decades.
        frac_tiny = (samples < 1e-5).mean()
        assert 0.1 < frac_tiny < 0.45

    def test_encode_decode_roundtrip(self):
        d = Real("x", 0.5, 2.0)
        assert decode(d, d.encode(1.3)) == pytest.approx(1.3)

    def test_log_roundtrip(self):
        d = Real("lr", 1e-6, 1e-2, log=True)
        assert decode(d, d.encode(3e-4)) == pytest.approx(3e-4)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Real("x", 2.0, 1.0)
        with pytest.raises(ValueError):
            Real("x", -1.0, 1.0, log=True)


class TestInteger:
    def test_sample_in_range(self):
        d = Integer("k", 5, 150)
        gen = np.random.default_rng(0)
        vals = [d.sample(gen) for _ in range(100)]
        assert min(vals) >= 5 and max(vals) <= 150

    def test_roundtrip(self):
        d = Integer("k", 5, 150)
        for v in (5, 42, 150):
            assert decode(d, d.encode(v)) == v

    def test_invalid(self):
        with pytest.raises(ValueError):
            Integer("k", 5, 5)


class TestChoice:
    def test_one_hot_roundtrip(self):
        d = Choice("h", (16, 32, 64, 128))
        for v in d.options:
            assert decode(d, d.encode(v)) == v

    def test_encoded_width(self):
        assert Choice("h", (1, 2, 3)).encoded_width == 3

    def test_needs_two_options(self):
        with pytest.raises(ValueError):
            Choice("h", (1,))


class TestSearchSpace:
    def test_paper_space_shape(self):
        space = paper_table1_space()
        assert space.encoded_width == 1 + 4 + 1
        cfg = space.sample(0)
        assert set(cfg) == {"lr", "hidden_dim", "sort_k"}
        assert space.contains(cfg)

    def test_roundtrip(self):
        space = paper_table1_space()
        cfg = {"lr": 1e-3, "hidden_dim": 64, "sort_k": 30}
        back = decode(space, space.encode(cfg))
        assert back["hidden_dim"] == 64
        assert back["sort_k"] == 30
        assert back["lr"] == pytest.approx(1e-3)

    def test_contains_rejects_bad_values(self):
        space = paper_table1_space()
        assert not space.contains({"lr": 1.0, "hidden_dim": 64, "sort_k": 30})
        assert not space.contains({"lr": 1e-3, "hidden_dim": 48, "sort_k": 30})
        assert not space.contains({"lr": 1e-3, "hidden_dim": 64, "sort_k": 200})
        assert not space.contains({"lr": 1e-3, "hidden_dim": 64})

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace([Integer("a", 0, 1), Integer("a", 0, 2)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace([])

    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_property_sample_encode_decode(self, seed):
        space = paper_table1_space()
        cfg = space.sample(seed)
        back = decode(space, space.encode(cfg))
        assert back["hidden_dim"] == cfg["hidden_dim"]
        assert back["sort_k"] == cfg["sort_k"]
        assert back["lr"] == pytest.approx(cfg["lr"], rel=1e-9)
