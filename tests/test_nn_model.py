"""Tests for the Sequential container: build, predict, persistence."""

import gc
import weakref

import numpy as np
import pytest

from repro import nn


def make_mlp():
    return nn.Sequential([
        nn.Dense(16),
        nn.BatchNorm(),
        nn.ReLU(),
        nn.Dense(3),
    ], name="mlp")


def test_build_sets_shapes():
    model = make_mlp().build((8,), seed=0)
    assert model.built
    assert model.input_shape == (8,)
    assert model.output_shape == (3,)


def test_forward_requires_build(rng):
    model = make_mlp()
    with pytest.raises(RuntimeError):
        model.forward(rng.standard_normal((2, 8)))


def test_predict_batching_consistent(rng):
    model = make_mlp().build((8,), seed=0)
    x = rng.standard_normal((50, 8)).astype(np.float32)
    full = model.predict(x, batch_size=50)
    chunked = model.predict(x, batch_size=7)
    np.testing.assert_allclose(full, chunked, rtol=1e-6)


def test_evaluate_accuracy_bounds(rng):
    model = make_mlp().build((8,), seed=0)
    x = rng.standard_normal((20, 8)).astype(np.float32)
    y = rng.integers(0, 3, 20)
    acc = model.evaluate(x, y)
    assert 0.0 <= acc <= 1.0


def test_state_dict_roundtrip(rng, tmp_path):
    model = make_mlp().build((8,), seed=0)
    x = rng.standard_normal((4, 8)).astype(np.float32)
    before = model.predict(x)
    path = tmp_path / "weights.npz"
    model.save_weights(path)

    # a freshly built model with a different seed diverges...
    other = make_mlp().build((8,), seed=99)
    assert not np.allclose(other.predict(x), before)
    # ...until the saved state is loaded
    other.load_weights(path)
    np.testing.assert_allclose(other.predict(x), before, rtol=1e-6)


def test_num_params_counts_everything():
    model = make_mlp().build((8,), seed=0)
    # dense(8->16)+bias + bn(gamma+beta) + dense(16->3)+bias
    expected = (8 * 16 + 16) + (16 + 16) + (16 * 3 + 3)
    assert model.num_params() == expected


def test_summary_mentions_layers():
    model = make_mlp().build((8,), seed=0)
    text = model.summary()
    assert "total params" in text
    assert "mlp" in text


def test_layers_of_type():
    model = make_mlp().build((8,), seed=0)
    assert len(model.layers_of_type(nn.Dense)) == 2
    assert len(model.layers_of_type(nn.BatchNorm)) == 1


def test_all_layers_leaves_no_reference_cycle():
    """A dropped model is freed at once, not at the next cyclic
    collection: its layers may pin megabytes of memoized inputs."""
    model = make_mlp().build((8,), seed=0)
    assert [type(layer) for layer in model.all_layers()] == [
        nn.Dense, nn.BatchNorm, nn.ReLU, nn.Dense]
    layer = weakref.ref(model.layers[1])
    gc.disable()
    try:
        del model
        assert layer() is None
    finally:
        gc.enable()
