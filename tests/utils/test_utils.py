"""Utility plumbing: RNG, serialization, timing, logging."""

import logging

import numpy as np
import pytest

from repro.utils.logging import get_logger, set_verbosity
from repro.utils.rng import (
    derive,
    ensure_rng,
    generator_state,
    restore_generator_state,
)
from repro.utils.serialization import (
    load_arrays,
    load_json,
    save_arrays,
    save_json,
    to_jsonable,
)
from repro.utils.timing import Stopwatch, Timer


class TestRng:
    def test_ensure_rng_from_int_deterministic(self):
        a = ensure_rng(42).random(5)
        b = ensure_rng(42).random(5)
        np.testing.assert_allclose(a, b)

    def test_ensure_rng_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_ensure_rng_none(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_ensure_rng_rejects_strings(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")

    def test_derive_stable_across_calls(self):
        a = derive(7, "train").random(4)
        b = derive(7, "train").random(4)
        np.testing.assert_allclose(a, b)

    def test_derive_differs_by_tag(self):
        a = derive(7, "train").random(4)
        b = derive(7, "test").random(4)
        assert not np.allclose(a, b)

    def test_derive_differs_by_seed(self):
        a = derive(7, "x").random(4)
        b = derive(8, "x").random(4)
        assert not np.allclose(a, b)


class TestGeneratorState:
    def test_capture_restore_replays_stream(self):
        gen = np.random.default_rng(3)
        gen.random(5)
        state = generator_state(gen)
        first = gen.random(8)
        restore_generator_state(gen, state)
        np.testing.assert_array_equal(gen.random(8), first)

    def test_state_is_json_safe(self):
        import json

        gen = np.random.default_rng(0)
        text = json.dumps(generator_state(gen))
        fresh = np.random.default_rng(99)
        restore_generator_state(fresh, json.loads(text))
        np.testing.assert_array_equal(
            fresh.random(4), np.random.default_rng(0).random(4)
        )

    def test_capture_is_a_snapshot(self):
        gen = np.random.default_rng(1)
        state = generator_state(gen)
        gen.random(10)  # advancing must not mutate the captured state
        restore_generator_state(gen, state)
        np.testing.assert_array_equal(
            gen.random(4), np.random.default_rng(1).random(4)
        )

    def test_bit_generator_mismatch_rejected(self):
        state = generator_state(np.random.default_rng(0))
        other = np.random.Generator(np.random.Philox(0))
        with pytest.raises(ValueError, match="PCG64"):
            restore_generator_state(other, state)


class TestSerialization:
    def test_arrays_roundtrip(self, tmp_path):
        data = {"w": np.arange(6.0).reshape(2, 3), "b": np.zeros(3)}
        path = tmp_path / "sub" / "model.npz"
        save_arrays(path, data)
        loaded = load_arrays(path)
        assert set(loaded) == {"w", "b"}
        np.testing.assert_allclose(loaded["w"], data["w"])

    def test_json_roundtrip_with_numpy(self, tmp_path):
        obj = {"auc": np.float64(0.91), "counts": np.array([1, 2]), "name": "x"}
        path = tmp_path / "res.json"
        save_json(path, obj)
        loaded = load_json(path)
        assert loaded == {"auc": 0.91, "counts": [1, 2], "name": "x"}

    def test_to_jsonable_nested(self):
        out = to_jsonable({"a": [np.int64(3), {"b": np.bool_(True)}]})
        assert out == {"a": [3, {"b": True}]}

    def test_to_jsonable_scalar_array(self):
        assert to_jsonable(np.array(2.5)) == 2.5

    def test_to_jsonable_nonfinite_floats_become_none(self):
        out = to_jsonable(
            {"nan": float("nan"), "inf": np.inf, "ninf": np.float64("-inf"), "ok": 1.5}
        )
        assert out == {"nan": None, "inf": None, "ninf": None, "ok": 1.5}

    def test_save_json_nan_roundtrips_as_null(self, tmp_path):
        # json.dumps would otherwise emit bare NaN — invalid JSON that
        # json.load elsewhere (jq, browsers) rejects.
        path = tmp_path / "bench.json"
        save_json(path, {"speedup": float("nan"), "auc": 0.9})
        text = path.read_text()
        assert "NaN" not in text and "null" in text
        assert load_json(path) == {"speedup": None, "auc": 0.9}

    def test_save_json_nonfinite_in_arrays(self, tmp_path):
        path = tmp_path / "arr.json"
        save_json(path, {"trace": np.array([1.0, np.nan, np.inf])})
        assert load_json(path) == {"trace": [1.0, None, None]}

    def test_atomic_write_leaves_no_tmp_files(self, tmp_path):
        path = tmp_path / "out.json"
        save_json(path, {"a": 1})
        save_arrays(tmp_path / "out.npz", {"w": np.ones(2)})
        leftovers = [p.name for p in tmp_path.iterdir() if ".tmp" in p.name]
        assert leftovers == []

    def test_failed_write_preserves_existing_file(self, tmp_path):
        path = tmp_path / "keep.json"
        save_json(path, {"good": True})
        with pytest.raises(TypeError):
            save_json(path, {"bad": object()})
        assert load_json(path) == {"good": True}


class TestTiming:
    def test_timer_measures(self):
        with Timer() as t:
            sum(range(10000))
        assert t.elapsed >= 0.0

    def test_stopwatch_segments(self):
        sw = Stopwatch()
        for _ in range(3):
            with sw.segment("work"):
                pass
        assert sw.counts["work"] == 3
        assert sw.totals["work"] >= 0.0


class TestLogging:
    def test_get_logger_namespaced(self):
        logger = get_logger("unit")
        assert logger.name == "repro.unit"

    def test_set_verbosity(self):
        set_verbosity("DEBUG")
        assert logging.getLogger("repro").level == logging.DEBUG
        set_verbosity(logging.WARNING)
