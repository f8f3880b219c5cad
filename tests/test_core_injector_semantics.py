"""Tests for the less-travelled injector paths: weight-level flips and
the cross-layer notion of time."""

import numpy as np

from repro import nn
from repro.binary import QuantDense
from repro.core import (FaultGenerator, FaultInjector, FaultSpec, Semantics)
from repro.core.masks import LayerMasks


def two_layer_model(seed=0):
    model = nn.Sequential([
        QuantDense(8, input_quantizer="ste_sign", kernel_quantizer="ste_sign",
                   name="sem_hidden"),
        nn.BatchNorm(),
        nn.Sign(),
        QuantDense(4, input_quantizer="ste_sign", kernel_quantizer="ste_sign",
                   name="sem_out"),
    ], name="sem_model")
    model.build((16,), seed=seed)
    bn = model.layers_of_type(nn.BatchNorm)[0]
    bn.running_mean[...] = 0.1
    bn.running_var[...] = 1.4
    return model


def test_weight_level_bitflip_negates_kernel_bits(rng):
    """WEIGHT-semantics flips invert the stored kernel bits persistently."""
    model = two_layer_model()
    layer = model.layers[0]
    generator = FaultGenerator(
        FaultSpec.bitflip(0.5, semantics=Semantics.WEIGHT),
        rows=4, cols=4, seed=2)
    plan = generator.generate(model, layers=[layer.name])
    qkernel = np.sign(layer.params["kernel"]) + 0.0
    with FaultInjector().injecting(model, plan):
        corrupted = layer.kernel_fault_hook(qkernel.copy(), layer)
    changed = corrupted != qkernel
    assert changed.any()
    np.testing.assert_array_equal(corrupted[changed], -qkernel[changed])
    # unflipped bits untouched
    np.testing.assert_array_equal(corrupted[~changed], qkernel[~changed])


def test_weight_flip_changes_inference_persistently(rng):
    model = two_layer_model()
    x = rng.standard_normal((4, 16)).astype(np.float32)
    clean = model.predict(x)
    generator = FaultGenerator(
        FaultSpec.bitflip(0.4, semantics=Semantics.WEIGHT),
        rows=4, cols=4, seed=1)
    with FaultInjector().injecting(model, generator.generate(model)):
        first = model.predict(x)
        second = model.predict(x)
    assert not np.array_equal(first, clean)
    np.testing.assert_array_equal(first, second)


def make_dynamic_plan(model, period):
    """One flipped mask cell per layer, dynamic with the given period."""
    plan = {}
    for layer in model.layers_of_type(QuantDense):
        masks = LayerMasks(rows=2, cols=2)
        masks.flip_mask[0, 0] = True
        masks.flip_period = period
        plan[layer.name] = masks
    return plan


def test_time_continues_across_layers(rng):
    """The second layer's occurrence counter starts at the first layer's
    total mask repetitions (the paper's notion of time).

    Here the hidden layer spans 2 mask repetitions (8 outputs / 4 mask
    cells), so the output layer starts at occurrence 2.  With period 3,
    occurrence 2 does not fire — the output layer gets *no* fault hook
    when time continues, but does fire (occurrence 0) when it doesn't.
    """
    model = two_layer_model()
    out = model.layers[-1]
    plan = make_dynamic_plan(model, period=3)

    with FaultInjector(continue_time_across_layers=True).injecting(model, plan):
        assert out.output_fault_hook is None      # suppressed at occ=2

    with FaultInjector(continue_time_across_layers=False).injecting(model, plan):
        assert out.output_fault_hook is not None  # fires at occ=0
        probe = np.arange(4, dtype=np.float32).reshape(1, 4) + 1.0
        fired = out.output_fault_hook(probe.copy(), out)
        assert (fired != probe).any()


def test_time_offset_even_period_unaffected(rng):
    """Period 2 with an even offset (2) fires either way."""
    model = two_layer_model()
    out = model.layers[-1]
    plan = make_dynamic_plan(model, period=2)
    for continue_time in (True, False):
        injector = FaultInjector(continue_time_across_layers=continue_time)
        with injector.injecting(model, plan):
            assert out.output_fault_hook is not None


def test_zero_rate_weight_semantics_still_identity(rng):
    model = two_layer_model()
    x = rng.standard_normal((3, 16)).astype(np.float32)
    clean = model.predict(x)
    generator = FaultGenerator(
        FaultSpec.bitflip(0.0, semantics=Semantics.WEIGHT), rows=4, cols=4)
    with FaultInjector().injecting(model, generator.generate(model)):
        np.testing.assert_array_equal(model.predict(x), clean)


def test_output_flips_bit_identical_to_negation():
    """The ±1 multiply negates exactly the selected elements: signed
    zeros and infinities flip like ``-v``, everything else is untouched,
    and the dtype is preserved."""
    from repro.core.semantics import apply_output_flips

    rng = np.random.default_rng(3)
    values = rng.choice([-0.0, 0.0, -3.0, 5.0, np.inf, -np.inf], size=(4, 2, 3, 5))
    selector = rng.random(2 * 3 * 5) < 0.5
    for dtype in (np.float32, np.float64):
        fmap = values.astype(dtype)
        want = fmap.reshape(4, -1).copy()
        want[:, selector] = -want[:, selector]
        want = want.reshape(fmap.shape)
        got = apply_output_flips(fmap, selector)
        assert got.dtype == dtype and got.shape == fmap.shape
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
        assert not np.shares_memory(got, fmap)
