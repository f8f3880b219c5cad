"""The binary tail at inference (repro.binary.tail): batch-norm + sign as
integer thresholds, and the bipolar helper — bit-identical to the unfused
Sequential.forward / evaluate oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.binary import (ApproxSign, QuantConv2D, QuantDense, SteSign,
                          bitops)
from repro.binary.tail import compile_tail
from repro.core import FaultCampaign, FaultInjector, FaultSpec, Semantics
from repro.core.engine import CampaignEvaluator, build_jobs
from repro.models import build_lenet
from repro.models.zoo import build_model

ROWS, COLS = 8, 4


def _old_sign(x):
    """The idiom ``bipolar`` replaced."""
    return np.where(x >= 0, 1.0, -1.0).astype(np.float32)


def _assert_bit_identical(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# -- bipolar -----------------------------------------------------------------

_SPECIALS = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-45, -1e-45]


@given(st.lists(st.one_of(st.sampled_from(_SPECIALS),
                          st.floats(width=32, allow_nan=True)),
                min_size=0, max_size=64))
def test_bipolar_matches_np_where_sign(values):
    x = np.array(values, dtype=np.float32)
    _assert_bit_identical(nn.ops.bipolar(x >= 0), _old_sign(x))


def test_bipolar_call_sites_match_np_where_sign():
    x = np.array([[0.0, -0.0, np.nan, 2.5], [-3.0, np.inf, -np.inf, 1e-40]],
                 dtype=np.float32)
    _assert_bit_identical(nn.Sign().forward(x), _old_sign(x))
    for q in (SteSign(), ApproxSign()):
        _assert_bit_identical(q.quantize(x), _old_sign(x))
    bits = np.random.default_rng(0).integers(0, 2, (3, 70))
    words, length = bitops.pack_bits(bits.astype(np.uint8)), bits.shape[-1]
    _assert_bit_identical(bitops.unpack_bipolar(words, length),
                          _old_sign(bits - 0.5))


# -- thresholds --------------------------------------------------------------

def _bn(gamma, beta, mean, var):
    layer = nn.BatchNorm()
    layer.build((len(gamma),), np.random.default_rng(0))
    layer.params["gamma"][...] = gamma
    layer.params["beta"][...] = beta
    layer.running_mean[...] = mean
    layer.running_var[...] = var
    return layer


def _assert_thresholds_exact(layer, k):
    thresholds = layer.sign_thresholds(k)
    assert thresholds is not None
    channels = layer.params["gamma"].size
    values = np.append(np.arange(-k, k + 1), -0.0).astype(np.float32)
    # NHWC-shaped, every point in every channel
    x = np.repeat(values[:, None], channels, axis=1).reshape(
        len(values), 1, 1, channels)
    want = _old_sign(layer.forward(x))
    _assert_bit_identical(layer.forward(x, thresholds=thresholds), want)
    return thresholds


_gamma = st.one_of(st.just(0.0), st.just(-0.0),
                   st.floats(-4, 4, width=32),
                   st.floats(2.0 ** -100, 2.0 ** -10, width=32),
                   st.floats(-2.0 ** -10, -2.0 ** -100, width=32))
_var = st.one_of(st.just(0.0), st.floats(0, 2.0 ** -20, width=32),
                 st.floats(0, 1e4, width=32))
_beta = st.one_of(st.floats(-4, 4, width=32), st.floats(-1e6, 1e6, width=32))


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 300),
       channels=st.lists(st.tuples(_gamma, _beta, st.floats(-400, 400,
                                                            width=32), _var),
                         min_size=1, max_size=6))
def test_thresholds_reproduce_sign_of_batch_norm(k, channels):
    gamma, beta, mean, var = (np.array(column, dtype=np.float32)
                              for column in zip(*channels))
    _assert_thresholds_exact(_bn(gamma, beta, mean, var), k)


def test_thresholds_cover_rising_falling_and_constant_channels():
    k = 10
    layer = _bn(gamma=[1.0, -1.0, 0.0, 0.0, 2.0, -2.0],
                beta=[0.0, 0.0, 3.0, -3.0, 1e6, -1e6],
                mean=[2.5, 2.5, 0.0, 0.0, 0.0, 0.0],
                var=[1.0, 1.0, 1.0, 1.0, 1e-12, 1e-12])
    threshold, flip = _assert_thresholds_exact(layer, k)
    np.testing.assert_array_equal(flip, [False, True, False, False,
                                         False, False])
    # x >= 3 rises to +1; the falling twin is +1 for x <= 2
    assert threshold[0] == 3.0 and threshold[1] == 3.0
    assert threshold[2] == -k and threshold[4] == -k    # all +1
    assert threshold[3] == k + 1 and threshold[5] == k + 1  # all -1


def test_all_rising_channels_need_no_flip():
    layer = _bn(gamma=[1.0, 0.5, 0.0], beta=[0.0, 1.0, -1.0],
                mean=[1.0, -2.0, 0.0], var=[4.0, 9.0, 1.0])
    _, flip = _assert_thresholds_exact(layer, 6)
    assert flip is None


def test_signed_zero_input_agrees_with_positive_zero():
    layer = _bn(gamma=[1.0, -1.0, 1.0], beta=[0.0, -0.0, -0.0],
                mean=[0.0, 0.0, -0.0], var=[1.0, 1.0, 1.0])
    _assert_thresholds_exact(layer, 3)


class _NotMonotone(nn.BatchNorm):
    def forward(self, x, training=False, thresholds=None):
        if thresholds is not None:
            return super().forward(x, training, thresholds)
        return x * x - 4.0


def test_non_step_channels_are_not_fused():
    layer = _NotMonotone()
    layer.build((6,), np.random.default_rng(0))
    assert layer.sign_thresholds(5) is None
    model = _chain(bn=layer)
    assert _fused(model) == set()


# -- where fusion fires ------------------------------------------------------

def _chain(bn=None, producer_bias=False, consumer_quantizer="ste_sign",
           producer_kernel="ste_sign"):
    """dense -> bn -> dense, for the fusion-site rules."""
    return nn.Sequential([
        QuantDense(6, input_quantizer="ste_sign", use_bias=producer_bias,
                   kernel_quantizer=producer_kernel, name="producer"),
        bn if bn is not None else nn.BatchNorm(name="bn"),
        QuantDense(3, input_quantizer=consumer_quantizer, name="consumer"),
    ]).build((12,), seed=0)


def _fused(model, start=0):
    steps = compile_tail(model.layers[start:])
    return {layer.name for layer, kwargs in steps if "thresholds" in kwargs}


def _bipolar_inputs(model):
    return {layer.name for layer, kwargs in compile_tail(model.layers)
            if kwargs.get("bipolar_input")}


def test_fusion_fires_exactly_between_mapped_lenet_layers():
    model = build_lenet()
    assert _fused(model) == {"bn1", "bn2", "bn3"}
    assert _bipolar_inputs(model) == {"conv2", "dense0", "dense1"}
    # a suffix compiles on its own: bn1 needs conv1 inside the suffix
    assert _fused(model, start=6) == {"bn2", "bn3"}


def test_fusion_sites_on_the_zoo():
    alexnet = build_model("binary_alexnet")
    fused = _fused(alexnet)
    assert len(fused) == 4  # after conv1, conv2, conv3 and dense0
    assert _bipolar_inputs(alexnet) == {"conv2", "conv3", "dense0", "dense1"}
    # XNOR-Net's magnitude-aware kernels are not ±1 sums
    assert _fused(build_model("xnornet")) == set()
    # residual and dense blocks: no top-level bn sits between mapped layers
    for name in ("binary_resnet_e18", "birealnet", "binary_densenet28",
                 "meliusnet22", "real_to_binary"):
        assert _fused(build_model(name)) == set(), name


@pytest.mark.parametrize("kwargs", [
    {"producer_bias": True},
    {"producer_kernel": "magnitude_aware_sign"},
    {"consumer_quantizer": "magnitude_aware_sign"},
    {"consumer_quantizer": None},
], ids=["biased-producer", "xnor-producer", "xnor-consumer", "real-consumer"])
def test_fusion_needs_integer_producer_and_sign_consumer(kwargs):
    assert _fused(_chain()) == {"bn"}
    assert _fused(_chain(**kwargs)) == set()


def test_real_valued_input_producer_is_not_fused():
    """conv0 reads grey-scale pixels: its outputs are not ±1 sums."""
    model = build_lenet()
    assert "bn0" not in _fused(model)
    conv0_bn0 = nn.Sequential([
        QuantConv2D(4, 3, kernel_quantizer="ste_sign", name="conv0"),
        nn.BatchNorm(name="bn0"),
        QuantConv2D(4, 3, input_quantizer="ste_sign", name="conv1"),
    ]).build((8, 8, 1), seed=0)
    assert _fused(conv0_bn0) == set()


# -- engine equivalence --------------------------------------------------------

def _randomize_batch_norms(model, seed):
    """Non-trivial inference statistics: mixed-sign and zero gammas,
    tiny variances, large offsets."""
    rng = np.random.default_rng(seed)
    state = model.state_dict()
    for index, layer in enumerate(model.all_layers()):
        if not isinstance(layer, nn.BatchNorm):
            continue
        c = layer.params["gamma"].size
        gamma = rng.normal(0, 1, c)
        gamma[rng.random(c) < 0.15] = 0.0
        var = rng.uniform(5, 60, c)
        var[rng.random(c) < 0.15] = 1e-12
        state[f"l{index}.gamma"] = gamma.astype(np.float32)
        state[f"l{index}.beta"] = rng.normal(0, 0.5, c).astype(np.float32)
        state[f"l{index}.running_mean"] = rng.normal(0, 4, c).astype(
            np.float32)
        state[f"l{index}.running_var"] = var.astype(np.float32)
    model.load_state_dict(state)
    return model


#: output flips, output stuck-at, weight stuck-at, dynamic flips
SPECS = [FaultSpec.bitflip(0.2),
         FaultSpec.stuck_at(0.05),
         FaultSpec.stuck_at(0.1, semantics=Semantics.WEIGHT),
         FaultSpec.bitflip(0.3, period=3)]
SPEC_IDS = ["flip", "stuck-output", "stuck-weight", "dynamic"]


def _spec_at(index):
    return SPECS[int(index)]


@pytest.fixture(scope="module", params=["lenet", "binary_alexnet"])
def fused_setup(request):
    if request.param == "lenet":
        model = build_lenet(seed=3)
        shape = (28, 28, 1)
    else:
        model = build_model("binary_alexnet", seed=3)
        shape = (32, 32, 3)
    _randomize_batch_norms(model, seed=7)
    x = np.random.default_rng(1).standard_normal((40,) + shape).astype(
        np.float32)
    # labels = the clean prediction, so any divergence under faults shows
    y = model.predict(x).argmax(-1)
    return model, x, y


def _oracle_accuracies(model, x, y):
    """Every plan through Sequential.evaluate: the unfused reference."""
    jobs = build_jobs(model, _spec_at, range(len(SPECS)), 2, 11, ROWS, COLS)
    accuracies = np.zeros((len(SPECS), 2))
    for job in jobs:
        with FaultInjector().injecting(model, job.plan):
            accuracies[job.point_index, job.repeat_index] = (
                model.evaluate(x, y, batch_size=16))
    return accuracies


@pytest.mark.parametrize("executor", ["serial", "shared_memory"])
def test_fused_grid_matches_sequential_evaluate(fused_setup, executor):
    model, x, y = fused_setup
    want = _oracle_accuracies(model, x, y)
    assert (want < 1.0).any()  # the faults did land
    fallbacks = []
    with FaultCampaign(model, x, y, rows=ROWS, cols=COLS, batch_size=16,
                       executor=executor, n_jobs=2) as campaign:
        campaign._executor.on_warning = fallbacks.append
        result = campaign.run(_spec_at, xs=range(len(SPECS)), repeats=2,
                              seed=11)
    assert fallbacks == []  # the pool ran, not a fallback
    np.testing.assert_array_equal(result.accuracies, want)


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_fused_logits_equal_unfused_forward(fused_setup, spec):
    """Stronger than accuracies: the compiled suffix returns the very
    logits of Sequential.forward under each fault kind."""
    model, x, _ = fused_setup
    plan = build_jobs(model, lambda _: spec, [0], 1, 5, ROWS, COLS)[0].plan
    evaluator = CampaignEvaluator(model, x[:16], np.zeros(16, int))
    split = evaluator._split_for(plan.keys())
    steps = evaluator._tail_for(split)
    assert any(kwargs for _, kwargs in steps)
    with FaultInjector().injecting(model, plan):
        want = model.forward(x[:16])
        out = x[:16]
        for layer in model.layers[:split]:
            out = layer.forward(out)
        for layer, kwargs in steps:
            out = layer.forward(out, **kwargs)
    _assert_bit_identical(out, want)


def test_thresholds_follow_weight_changes(fused_setup):
    """A new weights_version recompiles the tail: stale thresholds would
    disagree with the oracle after the batch-norm statistics move."""
    model, x, y = fused_setup
    state = {key: value.copy() for key, value in model.state_dict().items()}
    campaign = FaultCampaign(model, x, y, rows=ROWS, cols=COLS,
                             batch_size=16)
    try:
        campaign.run(_spec_at, xs=[0], repeats=1, seed=3)
        _randomize_batch_norms(model, seed=8)
        result = campaign.run(_spec_at, xs=range(len(SPECS)), repeats=2,
                              seed=11)
        np.testing.assert_array_equal(result.accuracies,
                                      _oracle_accuracies(model, x, y))
    finally:
        model.load_state_dict(state)


def test_every_suffix_layer_is_entered_once_per_batch_per_cell():
    """Per-layer telemetry wraps ``forward``: the fused tail must still
    enter every top-level suffix layer, once per batch per cell."""
    model = _randomize_batch_norms(build_lenet(seed=2), seed=4)
    x = np.random.default_rng(0).standard_normal((50, 28, 28, 1)).astype(
        np.float32)
    evaluator = CampaignEvaluator(model, x, np.zeros(50, int),
                                  batch_size=16)
    evaluator.baseline()  # prefix activations cached, tails compiled
    calls = {layer.name: [] for layer in model.layers}
    for layer in model.layers:
        def counted(*args, _forward=layer.forward, _name=layer.name,
                    **kwargs):
            calls[_name].append(sorted(kwargs))
            return _forward(*args, **kwargs)
        layer.forward = counted  # instance attribute, as tracers do
    try:
        jobs = build_jobs(model, FaultSpec.bitflip, [0.2], 3, 0, ROWS, COLS)
        for job in jobs:
            evaluator.run_job(job)
    finally:
        for layer in model.layers:
            del layer.forward
    n_batches, split = 4, evaluator._baseline_split()
    for layer in model.layers[:split]:
        assert calls[layer.name] == [], layer.name  # the cached prefix
    for layer in model.layers[split:]:
        assert len(calls[layer.name]) == n_batches * len(jobs), layer.name
    assert calls["bn1"][0] == ["thresholds", "training"]
    assert calls["conv2"][0] == ["bipolar_input", "training"]
    assert calls["bn4"][0] == ["training"]
